#!/bin/sh
# Reachability gate: fails on any non-test function that no entry binary
# links and scripts/reach.allow does not name, and on any allowlist line
# that names a linked or missing function. The entries are every package
# main of the module, perfbench, and a generated main that takes every
# exported function and method of package rlts. See DESIGN.md §9.5.
set -e
cd "$(dirname "$0")/.."
go run ./scripts/reach

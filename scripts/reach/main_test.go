package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The fixture module holds one unreachable function, a generic reached
// only through its instantiation, a generic type's method, a value method
// reached only through an interface and an allowlisted function; its
// allowlist also names a function that does not exist.
const fixture = "testdata/fixture"

func TestReachFixture(t *testing.T) {
	allow := filepath.Join(fixture, "reach.allow")
	for _, tc := range []struct {
		name, api string
		want      []string
	}{
		{"entries only", "", []string{
			"unreachable fixture/lib.Unreachable (lib/lib.go:33)",
			"stale " + allow + ":2: no function or package fixture/lib.Gone",
		}},
		// Taking the package's exported API as an entry links Unreachable
		// and Allowed, so Allowed's line goes stale.
		{"exported API as entry", "fixture/lib", []string{
			"stale " + allow + ":1: fixture/lib.Allowed is linked",
			"stale " + allow + ":2: no function or package fixture/lib.Gone",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := run(fixture, allow, nil, tc.api)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Errorf("report:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
			}
		})
	}
}

func TestReachAllowlistFormat(t *testing.T) {
	for _, line := range []string{
		"fixture/lib.Allowed",
		"fixture/lib.Allowed because",
		"fixture/lib.Allowed test-support extra",
	} {
		file := filepath.Join(t.TempDir(), "reach.allow")
		if err := os.WriteFile(file, []byte(line+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readAllow(file); err == nil {
			t.Errorf("allowlist line %q accepted", line)
		}
	}
}

func TestStripTypeArgs(t *testing.T) {
	for in, want := range map[string]string{
		"p.Map[go.shape.int]":                          "p.Map",
		"p.(*Box[go.shape.int]).Get":                   "p.(*Box).Get",
		"p.decodeSlice[go.shape.[]uint8,go.shape.int]": "p.decodeSlice",
		"p.Name.String":                                "p.Name.String",
	} {
		if got := stripTypeArgs(in); got != want {
			t.Errorf("stripTypeArgs(%q) = %q, want %q", in, got, want)
		}
	}
}

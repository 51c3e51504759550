// Command reach lists the functions of this module that no entry binary
// links. The entries are every package main of the module, the perfbench
// module, and a generated main that takes every exported function and
// method of package rlts, the library API. They are built without
// inlining, so a called function keeps its own symbol, and read with
// `go tool nm`. A non-test func that is neither linked nor on
// scripts/reach.allow is reported, and so is an allowlist line that names
// a linked or missing function; either makes the exit status 1. Run it
// from the repository root:
//
//	go run ./scripts/reach
//
// An allowlist line is `<function or package> <reason>`, the reason being
// test-support or reference. A function is named as the linker names it,
// type arguments left out: pkg.F, pkg.T.M or pkg.(*T).M.
package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

var reasons = map[string]bool{"test-support": true, "reference": true}

// pkg is one package of the module: its non-test funcs, by linker name,
// with their positions, and the expressions that take its exported funcs
// and methods from a package that imports it as api.
type pkg struct {
	path, dir string
	main      bool
	fns       map[string]string
	api       []string
}

type allowLine struct {
	name string
	line int
}

func main() {
	report, err := run(".", "scripts/reach.allow", []string{"perfbench"}, "rlts")
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(2)
	}
	if len(report) > 0 {
		fmt.Println(strings.Join(report, "\n"))
		os.Exit(1)
	}
}

// run checks the module at root against allowFile, with the nested
// modules extras and the exported API of package api as further entries.
// It returns one line per unreachable function and per stale allowlist
// line; an empty report means the module passes.
func run(root, allowFile string, extras []string, api string) ([]string, error) {
	allow, err := readAllow(allowFile)
	if err != nil {
		return nil, err
	}
	if root, err = filepath.Abs(root); err != nil {
		return nil, err
	}
	pkgs, err := scan(root)
	if err != nil {
		return nil, err
	}
	linked, err := link(root, pkgs, extras, api)
	if err != nil {
		return nil, err
	}
	allowed := map[string]bool{}
	for _, a := range allow {
		allowed[a.name] = true
	}
	var report []string
	isPkg, isFn, deadIn := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, p := range pkgs {
		isPkg[p.path] = true
		for name, pos := range p.fns {
			isFn[name] = true
			if !linked[name] {
				deadIn[p.path] = true
				if !allowed[name] && !allowed[p.path] {
					report = append(report, fmt.Sprintf("unreachable %s (%s)", name, pos))
				}
			}
		}
	}
	sort.Strings(report)
	for _, a := range allow {
		switch {
		case !isPkg[a.name] && !isFn[a.name]:
			report = append(report, fmt.Sprintf("stale %s:%d: no function or package %s", allowFile, a.line, a.name))
		case isFn[a.name] && linked[a.name], isPkg[a.name] && !deadIn[a.name]:
			report = append(report, fmt.Sprintf("stale %s:%d: %s is linked", allowFile, a.line, a.name))
		}
	}
	return report, nil
}

// scan parses the non-test files of every package `go list ./...` finds
// under root, which leaves out testdata, nested modules and directories
// that start with . or _.
func scan(root string) ([]*pkg, error) {
	out, err := goCmd(root, "list", "-f", "{{.ImportPath}}\t{{.Name}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...")
	if err != nil {
		return nil, err
	}
	var pkgs []*pkg
	fset := token.NewFileSet()
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		f := strings.Split(line, "\t")
		p := &pkg{path: f[0], main: f[1] == "main", dir: f[2], fns: map[string]string{}}
		for _, file := range strings.Fields(f[3]) {
			af, err := parser.ParseFile(fset, filepath.Join(p.dir, file), nil, 0)
			if err != nil {
				return nil, err
			}
			for _, d := range af.Decls {
				// init runs whenever its package is linked, and a package
				// none of whose other functions is linked shows anyway.
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name != "_" && fd.Name.Name != "init" {
					pos := fset.Position(fd.Pos())
					rel, _ := filepath.Rel(root, pos.Filename)
					name, expr := linkerName(fd)
					p.fns[p.path+"."+name] = fmt.Sprintf("%s:%d", filepath.ToSlash(rel), pos.Line)
					if fd.Name.IsExported() && expr != "" {
						p.api = append(p.api, expr)
					}
				}
			}
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// linkerName returns fd's linker name within its package and, unless fd
// is generic or a method of an unexported type, the expression that takes
// it from a package that imports its own as api.
func linkerName(fd *ast.FuncDecl) (name, expr string) {
	name, expr = fd.Name.Name, "api."+fd.Name.Name
	generic := fd.Type.TypeParams != nil
	if fd.Recv != nil {
		t := fd.Recv.List[0].Type
		star, isStar := t.(*ast.StarExpr)
		if isStar {
			t = star.X
		}
		switch x := t.(type) {
		case *ast.IndexExpr:
			t, generic = x.X, true
		case *ast.IndexListExpr:
			t, generic = x.X, true
		}
		recv := t.(*ast.Ident).Name
		name, expr = recv+"."+name, "api."+recv+"."+name
		if isStar {
			name, expr = "(*"+recv+")."+fd.Name.Name, "(*api."+recv+")."+fd.Name.Name
		}
		generic = generic || !ast.IsExported(recv)
	}
	if generic {
		expr = ""
	}
	return name, expr
}

// link builds every entry into a temporary directory and returns the
// linked text symbols with type arguments stripped. A package main links
// its functions as main.F; they are renamed after the package.
func link(root string, pkgs []*pkg, extras []string, api string) (map[string]bool, error) {
	tmp, err := os.MkdirTemp("", "reach")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	args := []string{"build", "-gcflags=all=-l", "-o", tmp + string(filepath.Separator)}
	var targets []string
	bins := map[string]string{} // binary -> import path of its package main
	for _, p := range pkgs {
		if p.main {
			targets = append(targets, p.dir)
			bins[filepath.Join(tmp, path.Base(p.path))] = p.path
		}
		if p.path == api {
			overlay, err := apiOverlay(root, tmp, p)
			if err != nil {
				return nil, err
			}
			args = append(args, "-overlay", overlay)
			targets = append(targets, filepath.Join(root, "_reachapi"))
			bins[filepath.Join(tmp, "_reachapi")] = ""
		}
	}
	if _, err := goCmd(root, append(args, targets...)...); err != nil {
		return nil, err
	}
	for i, dir := range extras {
		bin := filepath.Join(tmp, fmt.Sprintf("_extra%d", i))
		if _, err := goCmd(filepath.Join(root, dir), "build", "-gcflags=all=-l", "-o", bin, "."); err != nil {
			return nil, err
		}
		bins[bin] = ""
	}
	linked := map[string]bool{}
	for bin, mainPkg := range bins {
		out, err := goCmd(root, "tool", "nm", bin)
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(out, "\n") {
			_, rest, _ := strings.Cut(strings.TrimSpace(line), " ")
			kind, sym, _ := strings.Cut(rest, " ")
			if kind != "T" && kind != "t" {
				continue
			}
			sym = stripTypeArgs(sym)
			if s, ok := strings.CutPrefix(sym, "main."); ok && mainPkg != "" {
				sym = mainPkg + "." + s
			}
			linked[sym] = true
		}
	}
	return linked, nil
}

// apiOverlay writes a main that takes every exported function and method
// of p, and an overlay that places it in the module's _reachapi directory
// without writing into the tree.
func apiOverlay(root, tmp string, p *pkg) (string, error) {
	src := fmt.Sprintf("package main\n\nimport api %q\n\nvar sink []any\n\nfunc main() {\n", p.path)
	for _, e := range p.api {
		src += "\tsink = append(sink, " + e + ")\n"
	}
	file, overlay := filepath.Join(tmp, "reachapi.go"), filepath.Join(tmp, "overlay.json")
	ov, err := json.Marshal(map[string]map[string]string{"Replace": {filepath.Join(root, "_reachapi", "main.go"): file}})
	if err == nil {
		err = os.WriteFile(file, []byte(src+"}\n"), 0o644)
	}
	if err == nil {
		err = os.WriteFile(overlay, ov, 0o644)
	}
	return overlay, err
}

// goCmd runs the go command in dir and returns its standard output.
func goCmd(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go %s in %s: %v", strings.Join(args, " "), dir, err)
	}
	return string(out), nil
}

// stripTypeArgs drops every bracketed group, so that
// pkg.(*List[go.shape.int]).Push reads pkg.(*List).Push.
func stripTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// readAllow returns the allowlist's entries in line order.
func readAllow(file string) ([]allowLine, error) {
	b, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var allow []allowLine
	for i, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) > 0 && !strings.HasPrefix(f[0], "#") {
			if len(f) != 2 || !reasons[f[1]] {
				return nil, fmt.Errorf("%s:%d: want `<function or package> test-support|reference`, got %q", file, i+1, line)
			}
			allow = append(allow, allowLine{f[0], i + 1})
		}
	}
	return allow, nil
}

//go:build ignore

// Varreads lists the package-level variables that no code reads.
//
// It type-checks, from source, the non-test files of every package that
// `go list ./...` names in each directory argument (default "."), with
// go/parser, go/types and the "source" importer, so it needs no compiled
// export data and no network. A variable counts as read when some
// identifier in any listed package uses it, except:
//
//   - the uses inside its own declaration (its initialiser), and
//   - writes: the variable as the whole target of an assignment or of an
//     increment or decrement, or as the base of such a target's index and
//     field chain (v = x, v[k] = x, v.f++).
//
// Each unread variable is printed as `importpath.Name<TAB>file:line`, in
// that order; blank (`_`) variables are skipped. scripts/reach.py runs it
// to find the dead variables that the linker keeps because an initialiser
// runs code (`var m = map[string]int{"a": 1}` is written by its package's
// init, so its symbol survives even when nothing reads it).
//
// Usage:
//
//	go run scripts/varreads.go [dir ...]
//	go run scripts/varreads.go -selftest
//
// -selftest runs the analysis on a generated fixture module and checks
// which of its variables it reports. Exit status: 0 on success (whether or
// not variables were reported), 1 on a failed self-test, 2 on a load or
// type error.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	args := os.Args[1:]
	if len(args) == 1 && args[0] == "-selftest" {
		if err := selfTest(); err != nil {
			fmt.Fprintln(os.Stderr, "varreads: self-test:", err)
			os.Exit(1)
		}
		fmt.Println("varreads self-test OK")
		return
	}
	if len(args) == 0 {
		args = []string{"."}
	}
	unread, err := analyse(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "varreads:", err)
		os.Exit(2)
	}
	for _, u := range unread {
		fmt.Printf("%s\t%s\n", u.sym, u.pos)
	}
}

// listed is the part of `go list -json` output varreads needs.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
}

// finding is one unread variable.
type finding struct{ sym, pos string }

// varKey names a package-level variable across type-checks: the source
// importer builds its own objects for a package, so identity is by path.
type varKey struct{ pkg, name string }

// analyse type-checks every package listed in dirs and returns the
// unread package-level variables, sorted by symbol.
func analyse(dirs []string) ([]finding, error) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	declared := map[varKey]string{} // -> file:line
	read := map[varKey]bool{}
	for _, dir := range dirs {
		pkgs, err := goList(dir)
		if err != nil {
			return nil, err
		}
		// The source importer resolves module paths with the go command
		// run from build.Default.Dir, so each directory brings its module.
		if build.Default.Dir, err = filepath.Abs(dir); err != nil {
			return nil, err
		}
		for _, lp := range pkgs {
			if err := check(fset, imp, lp, declared, read); err != nil {
				return nil, err
			}
		}
	}
	var out []finding
	for k, pos := range declared {
		if !read[k] {
			out = append(out, finding{k.pkg + "." + k.name, pos})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].sym < out[j].sym })
	return out, nil
}

// goList returns the packages `go list -json ./...` names in dir.
func goList(dir string) ([]listed, error) {
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []listed
	dec := json.NewDecoder(bytes.NewReader(raw))
	for {
		var lp listed
		if err := dec.Decode(&lp); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, lp)
	}
}

// check type-checks one package, records its package-level variables in
// declared and every variable it reads in read.
func check(fset *token.FileSet, imp types.Importer, lp listed, declared map[varKey]string, read map[varKey]bool) error {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(lp.ImportPath, fset, files, info); err != nil {
		return fmt.Errorf("type-checking %s: %w", lp.ImportPath, err)
	}
	ownSpan := map[types.Object][2]token.Pos{} // a variable's declaration
	for _, f := range files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, s := range gd.Specs {
				vs := s.(*ast.ValueSpec)
				for _, id := range vs.Names {
					if id.Name == "_" {
						continue
					}
					obj := info.Defs[id]
					ownSpan[obj] = [2]token.Pos{vs.Pos(), vs.End()}
					p := fset.Position(id.Pos())
					declared[varKey{lp.ImportPath, id.Name}] = fmt.Sprintf("%s:%d", p.Filename, p.Line)
				}
			}
		}
	}
	writes := map[*ast.Ident]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range s.Lhs {
					if id := target(info, lhs); id != nil {
						writes[id] = true
					}
				}
			case *ast.IncDecStmt:
				if id := target(info, s.X); id != nil {
					writes[id] = true
				}
			}
			return true
		})
	}
	for id, obj := range info.Uses {
		v, ok := obj.(*types.Var)
		if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() || writes[id] {
			continue
		}
		if span, own := ownSpan[obj]; own && id.Pos() >= span[0] && id.Pos() < span[1] {
			continue
		}
		read[varKey{v.Pkg().Path(), v.Name()}] = true
	}
	return nil
}

// target returns the identifier an assignment target writes: the target
// itself, or the base of its index and field chain (a qualified pkg.V
// counts as V). Anything else, such as a dereference, yields nil.
func target(info *types.Info, e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, pkg := info.Uses[id].(*types.PkgName); pkg {
					return x.Sel
				}
			}
			e = x.X
		default:
			return nil
		}
	}
}

// selfTest runs the analysis on a two-package fixture module and checks
// the reported set exactly.
func selfTest() error {
	dir, err := os.MkdirTemp("", "varreads-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	files := map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"a/a.go": `package a

import "strings"

var (
	deadMap   = map[string]int{"a": 1}      // unread: its init runs code
	deadStr   = "static"                    // read by the blank var below
	writeOnly = 0                           // only written
	fieldOnly struct{ n int }               // only a field is written
	liveMap   = map[string]int{"b": 2}      // read below
	Exported  = strings.Repeat("x", 3)      // read by package b
	chained   = map[string]int{"c": len(Exported)}
	_         = deadStr
)

func Touch() int {
	writeOnly = 3
	writeOnly++
	fieldOnly.n = 4
	deadMap["z"] = 2
	return liveMap["b"]
}
`,
		"b/b.go": `package b

import "fixture/a"

var viaOther = a.Exported

func Use() string { a.Exported = "y"; return viaOther }
`,
	}
	for name, src := range files {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			return err
		}
	}
	got, err := analyse([]string{dir})
	if err != nil {
		return err
	}
	var syms []string
	for _, f := range got {
		syms = append(syms, f.sym)
	}
	// deadStr is read by the blank var, which is how a file keeps an
	// otherwise unused declaration; chained is unread even though its
	// initialiser reads Exported.
	want := []string{"fixture/a.chained", "fixture/a.deadMap", "fixture/a.fieldOnly", "fixture/a.writeOnly"}
	if strings.Join(syms, " ") != strings.Join(want, " ") {
		return fmt.Errorf("reported %v, want %v", syms, want)
	}
	return nil
}

package propack

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIPatternsNameTests: `go test -run X` passes when X matches nothing, so
// a CI step that names a deleted or renamed test stops running it without a
// word. Every |-alternative of every -run and -fuzz pattern in the workflow
// must match a Test, Fuzz or Benchmark function of one of the packages its
// line tests. ("^$", which selects no test on purpose, is exempt.)
func TestCIPatternsNameTests(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	funcsOf := map[string][]string{} // package pattern → test functions
	checked := 0
	for no, line := range strings.Split(string(data), "\n") {
		cmd := strings.TrimPrefix(strings.TrimSpace(line), "run: ")
		if !strings.HasPrefix(cmd, "go test ") {
			continue
		}
		patterns, pkgs := goTestArgs(shellWords(cmd)[2:])
		var funcs []string
		for _, pkg := range pkgs {
			if _, ok := funcsOf[pkg]; !ok {
				funcsOf[pkg] = testFuncs(t, pkg)
			}
			funcs = append(funcs, funcsOf[pkg]...)
		}
		for _, pattern := range patterns {
			if strings.Contains(pattern, "/") {
				t.Fatalf("ci.yml:%d: %q selects subtests, which this check does not parse", no+1, pattern)
			}
			for _, alt := range alternatives(pattern) {
				if alt == "^$" {
					continue
				}
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Fatalf("ci.yml:%d: %q: %v", no+1, alt, err)
				}
				checked++
				if !matchesAny(re, funcs) {
					t.Errorf("ci.yml:%d: %q matches no test, fuzz target or benchmark in %v", no+1, alt, pkgs)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run or -fuzz pattern in ci.yml: the parser is out of step with the file")
	}
}

// shellWords splits a command line into words the way the shell does for
// these lines: on blanks, with quotes grouping and then dropped.
func shellWords(cmd string) []string {
	var words []string
	var word strings.Builder
	var quote rune
	inWord := false
	for _, r := range cmd {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			word.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, word.String())
				word.Reset()
				inWord = false
			}
		default:
			word.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, word.String())
	}
	return words
}

// goTestArgs returns the -run and -fuzz patterns and the package arguments
// of `go test`'s arguments.
func goTestArgs(args []string) (patterns, pkgs []string) {
	takesValue := map[string]bool{"run": true, "fuzz": true, "bench": true, "benchtime": true,
		"fuzztime": true, "cpu": true, "count": true, "timeout": true}
	for i := 0; i < len(args); i++ {
		if !strings.HasPrefix(args[i], "-") {
			pkgs = append(pkgs, args[i])
			continue
		}
		name, value, hasValue := strings.Cut(strings.TrimLeft(args[i], "-"), "=")
		if !hasValue && takesValue[name] && i+1 < len(args) {
			i++
			value = args[i]
		}
		if name == "run" || name == "fuzz" {
			patterns = append(patterns, value)
		}
	}
	return patterns, pkgs
}

// alternatives splits a regular expression at its top-level '|'s.
func alternatives(re string) []string {
	var out []string
	depth, from := 0, 0
	for i, r := range re {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
		case '|':
			if depth == 0 {
				out = append(out, re[from:i])
				from = i + 1
			}
		}
	}
	return append(out, re[from:])
}

// testFuncs returns the Test, Fuzz and Benchmark functions declared in the
// _test.go files of pkg, a `go test` package argument: a directory, or one
// ending in /... for the tree below it.
func testFuncs(t *testing.T, pkg string) []string {
	dir, recursive := strings.CutSuffix(pkg, "/...")
	var funcs []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != dir && (!recursive || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Fuzz", "Benchmark"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					funcs = append(funcs, fn.Name.Name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("listing the tests of %s: %v", pkg, err)
	}
	if len(funcs) == 0 {
		t.Fatalf("%s declares no test: not a package this check can read", pkg)
	}
	return funcs
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, name := range names {
		if re.MatchString(name) {
			return true
		}
	}
	return false
}

package pmcpower

// The API gate. Every exported identifier of internal/ must have a user
// that is not a test: a non-test file of this module (cmd/, examples/,
// internal/) or any Go file of the benchmark module under bench/, its
// tests included. Every exported field of a config type of internal/
// must have a setter outside its own package among the same files. The
// same test checks that every -run and -fuzz pattern of a go test
// command in CI names a test of the packages that command lists.

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
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// apiAllow holds the exported identifiers of internal/ that stay without
// a user outside tests and the config fields that stay without a setter
// outside their package, each with a checkable reason.
var apiAllow = map[string]string{
	"core.Model.PredictWithCI": "ROADMAP item 10 serves its HC3 standard error per sample",
	"core.Model.Attribute":     "ROADMAP item 10 serves its Equation-1 term breakdown with exemplars",
	"serve.Config.Now":         "the fake clock the serve tests inject; production takes time.Now",
}

// configType matches the names of the config types whose exported
// fields the knobs subtest checks.
var configType = regexp.MustCompile(`(Config|Options|Thresholds)$`)

type listedPackage struct {
	ImportPath   string
	Dir          string
	Standard     bool
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
}

// goList returns the packages matching ./... in dir and all their
// dependencies, dependencies first.
func goList(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

func TestAPIGate(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	module := goList(t, root)
	unused, unset := scanAPI(t, root, module, goList(t, filepath.Join(root, "bench")))
	t.Run("exports", func(t *testing.T) {
		if len(unused) > 0 {
			t.Errorf("exported identifiers of internal/ with no user outside tests (%d); delete or unexport each, or move it into a _test.go file:\n%s",
				len(unused), strings.Join(unused, "\n"))
		}
	})
	t.Run("knobs", func(t *testing.T) {
		if len(unset) > 0 {
			t.Errorf("config fields of internal/ that nothing outside their package sets (%d); make each a constant at the value in use:\n%s",
				len(unset), strings.Join(unset, "\n"))
		}
	})
	t.Run("ci", func(t *testing.T) { checkCIPatterns(t, root, module) })
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// scanAPI type-checks the module and the benchmark. It returns, each as
// "file:line: id" and leaving out apiAllow's entries, the exported
// identifiers of internal/ without a user and the config fields without
// a setter outside their package. It fails t on an allow-list entry that
// names neither.
func scanAPI(t *testing.T, root string, module, benchmark []listedPackage) (unused, unset []string) {
	fset := token.NewFileSet()
	// The standard library is checked from its pure-Go files: its cgo
	// files would need a C toolchain, and the module's use of the
	// standard library does not depend on which variant is built.
	build.Default.CgoEnabled = false
	std := importer.ForCompiler(fset, "source", nil)
	// Packages type-check in dependency order, and an import of a module
	// package returns the one already checked, so an object is the same
	// object in every package that uses it.
	checked := map[string]*types.Package{}
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if p, ok := checked[path]; ok {
				return p, nil
			}
			return std.Import(path)
		}),
		Sizes: types.SizesFor("gc", runtime.GOARCH),
	}
	used := map[types.Object]bool{}
	set := map[types.Object]bool{} // fields written outside their package
	var interfaces []*types.Interface
	check := func(path, dir string, names []string) *types.Package {
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		pkg, err := conf.Check(path, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
		for _, obj := range info.Uses {
			used[origin(obj)] = true
		}
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				named := tn.Type().(*types.Named)
				if iface, ok := named.Underlying().(*types.Interface); ok && named.TypeParams() == nil {
					interfaces = append(interfaces, iface)
				}
			}
		}
		setField := func(id *ast.Ident) {
			if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() && v.Pkg() != pkg {
				set[origin(v)] = true
			}
		}
		// written marks the fields selected along a written expression,
		// so cfg.A.B = v sets both A and B.
		written := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.Ident:
					setField(x)
					return
				case *ast.SelectorExpr:
					setField(x.Sel)
					e = x.X
				case *ast.ParenExpr:
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				default:
					return
				}
			}
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					written(n.Key)
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						written(lhs)
					}
				case *ast.IncDecStmt:
					written(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						written(n.X)
					}
				}
				return true
			})
		}
		return pkg
	}

	// The module's packages are checked from their non-test files, the
	// benchmark's from all of theirs.
	var internal []*types.Package
	for _, p := range module {
		if p.Standard {
			continue
		}
		pkg := check(p.ImportPath, p.Dir, p.GoFiles)
		checked[p.ImportPath] = pkg
		if strings.HasPrefix(p.ImportPath, "pmcpower/internal/") {
			internal = append(internal, pkg)
		}
	}
	for _, p := range benchmark {
		if p.Standard || checked[p.ImportPath] != nil {
			continue
		}
		checked[p.ImportPath] = check(p.ImportPath, p.Dir, append(p.GoFiles, p.TestGoFiles...))
		if len(p.XTestGoFiles) > 0 {
			check(p.ImportPath+"_test", p.Dir, p.XTestGoFiles)
		}
	}

	allowed := map[string]bool{} // allow-list entries that are still subjects
	subject := func(list *[]string, id string, obj types.Object, ok bool) {
		if ok {
			return
		}
		if _, ok := apiAllow[id]; ok {
			allowed[id] = true
			return
		}
		pos := fset.Position(obj.Pos())
		file, err := filepath.Rel(root, pos.Filename)
		if err != nil {
			file = pos.Filename
		}
		*list = append(*list, fmt.Sprintf("%s:%d: %s", file, pos.Line, id))
	}
	fields, configs := 0, 0
	for _, pkg := range internal {
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			id := pkg.Name() + "." + name
			subject(&unused, id, obj, used[obj])
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					subject(&unused, id+"."+m.Name(), m, used[m] || reachedThroughInterface(named, m, interfaces))
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok && configType.MatchString(name) {
				configs++
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						fields++
						subject(&unset, id+"."+f.Name(), f, set[f])
					}
				}
			}
		}
	}
	t.Logf("%d config fields in %d config types", fields, configs)
	for id, reason := range apiAllow {
		switch {
		case reason == "":
			t.Errorf("apiAllow entry %s gives no reason", id)
		case !allowed[id]:
			t.Errorf("apiAllow names %s, which is neither an exported identifier of internal/ without a user nor a config field without a setter; drop the entry", id)
		}
	}
	sort.Strings(unused)
	sort.Strings(unset)
	return unused, unset
}

// origin maps a use of an instantiated generic function, method or field
// to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// reachedThroughInterface reports whether calls may reach m without
// naming it: m is a String or Error method, or its type implements a
// module interface that declares a method of m's name.
func reachedThroughInterface(named *types.Named, m *types.Func, interfaces []*types.Interface) bool {
	sig := m.Type().(*types.Signature)
	if (m.Name() == "String" || m.Name() == "Error") && sig.Params().Len() == 0 &&
		sig.Results().Len() == 1 && types.Identical(sig.Results().At(0).Type(), types.Typ[types.String]) {
		return true
	}
	ptr := types.NewPointer(named)
	for _, iface := range interfaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == m.Name() && types.Implements(ptr, iface) {
				return true
			}
		}
	}
	return false
}

var testFunc = regexp.MustCompile(`^(Test|Fuzz|Example)`)

func checkCIPatterns(t *testing.T, root string, module []listedPackage) {
	// The Test, Fuzz and Example functions of each module package, keyed
	// by the package's directory as a go test argument.
	tests := map[string][]string{}
	fset := token.NewFileSet()
	for _, p := range module {
		if p.Standard {
			continue
		}
		rel, err := filepath.Rel(root, p.Dir)
		if err != nil {
			t.Fatal(err)
		}
		dir := "./" + filepath.ToSlash(rel)
		if rel == "." {
			dir = "."
		}
		tests[dir] = []string{}
		for _, name := range append(p.TestGoFiles, p.XTestGoFiles...) {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && testFunc.MatchString(fn.Name.Name) {
					tests[dir] = append(tests[dir], fn.Name.Name)
				}
			}
		}
	}

	const workflow = ".github/workflows/ci.yml"
	commands := goTestCommands(t, filepath.Join(root, workflow))
	if len(commands) == 0 {
		t.Fatalf("%s holds no go test command", workflow)
	}
	for _, command := range commands {
		var run, fuzz string
		var names []string
		args := shellWords(command)[2:]
		for i := 0; i < len(args); i++ {
			switch arg := args[i]; {
			case (arg == "-run" || arg == "-fuzz") && i+1 < len(args):
				if arg == "-run" {
					run = args[i+1]
				} else {
					fuzz = args[i+1]
				}
				i++
			case strings.HasPrefix(arg, "-run="):
				run = strings.TrimPrefix(arg, "-run=")
			case strings.HasPrefix(arg, "-fuzz="):
				fuzz = strings.TrimPrefix(arg, "-fuzz=")
			case arg == "." || strings.HasPrefix(arg, "./"):
				pkgNames, ok := testsOf(tests, arg)
				if !ok {
					t.Errorf("%s: %q names no package of the module", command, arg)
				}
				names = append(names, pkgNames...)
			}
		}
		if run != "" && run != "^$" {
			for _, alt := range alternatives(run) {
				if !matchesAny(t, alt, names, "") {
					t.Errorf("%s: -run alternative %q matches no Test, Fuzz or Example function of its packages", command, alt)
				}
			}
		}
		if fuzz != "" && !matchesAny(t, fuzz, names, "Fuzz") {
			t.Errorf("%s: -fuzz %q matches no fuzz target of its packages", command, fuzz)
		}
	}
}

// testsOf returns the test functions of the packages a go test argument
// names; ok is false if it names none.
func testsOf(tests map[string][]string, arg string) (names []string, ok bool) {
	base, all := strings.CutSuffix(arg, "/...")
	for dir, fns := range tests {
		if dir == base || all && (base == "." || strings.HasPrefix(dir, base+"/")) {
			names = append(names, fns...)
			ok = true
		}
	}
	return names, ok
}

func matchesAny(t *testing.T, pattern string, names []string, prefix string) bool {
	re, err := regexp.Compile(pattern)
	if err != nil {
		t.Errorf("pattern %q: %v", pattern, err)
		return true
	}
	for _, name := range names {
		if strings.HasPrefix(name, prefix) && re.MatchString(name) {
			return true
		}
	}
	return false
}

// alternatives splits a regular expression at its top-level '|'.
func alternatives(pattern string) []string {
	var alts []string
	depth, start := 0, 0
	for i := 0; i < len(pattern); i++ {
		switch pattern[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				alts = append(alts, pattern[start:i])
				start = i + 1
			}
		}
	}
	return append(alts, pattern[start:])
}

// goTestCommands returns each go test command of a workflow's run steps
// as one line: a folded block (run: >) is joined, a literal block
// (run: |) is taken line by line.
func goTestCommands(t *testing.T, path string) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	var commands []string
	for i := 0; i < len(lines); i++ {
		key := strings.Index(lines[i], "run:")
		if key < 0 || strings.Trim(lines[i][:key], " -") != "" {
			continue
		}
		value := strings.TrimSpace(lines[i][key+len("run:"):])
		script := []string{value}
		if strings.HasPrefix(value, ">") || strings.HasPrefix(value, "|") {
			script = script[:0]
			for i+1 < len(lines) && (strings.TrimSpace(lines[i+1]) == "" || len(lines[i+1])-len(strings.TrimLeft(lines[i+1], " ")) > key) {
				i++
				script = append(script, strings.TrimSpace(lines[i]))
			}
			if value[0] == '>' {
				script = []string{strings.Join(script, " ")}
			}
		}
		for _, line := range script {
			if strings.HasPrefix(line, "go test ") {
				commands = append(commands, line)
			}
		}
	}
	return commands
}

// shellWords splits a command line into words, removing quotes; it stops
// at the first pipe, list or redirection operator.
func shellWords(line string) []string {
	var words []string
	var word strings.Builder
	inWord := false
	var quote byte
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else {
				word.WriteByte(c)
			}
		case c == '\'' || c == '"':
			quote, inWord = c, true
		case c == ' ' || c == '\t':
			if inWord {
				words = append(words, word.String())
				word.Reset()
				inWord = false
			}
		case strings.IndexByte("|&;<>", c) >= 0:
			if inWord {
				words = append(words, word.String())
			}
			return words
		default:
			word.WriteByte(c)
			inWord = true
		}
	}
	if inWord {
		words = append(words, word.String())
	}
	return words
}

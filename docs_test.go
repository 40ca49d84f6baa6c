package progressdb_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The documents whose code references TestDocReferences holds to the tree.
var referenceDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	fenceRE    = regexp.MustCompile("(?ms)^```[^\n]*\n(.*?)^```")
	codeSpanRE = regexp.MustCompile("`([^`]+)`")
	goCmdRE    = regexp.MustCompile(`\bgo (?:run|test)\b[^|;&\x60]*`)
	pkgArgRE   = regexp.MustCompile(`(?:^|\s)(\./[\w./-]*)`)
	testNameRE = regexp.MustCompile(`^(?:Test|Fuzz|Benchmark|Example)[\w{},]*\*?$`)
	testFuncRE = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(`)
)

// pathPrefixes are the top-level directories a backticked path is
// checked against; other spans (identifiers, flags, SQL) are left alone.
var pathPrefixes = []string{"internal/", "cmd/", "client/", "examples/", "results/", "bench/"}

// TestDocReferences fails when a document names a path, a `go run` /
// `go test` package or a test that is not in the tree: every backticked
// path under one of pathPrefixes must exist (a trailing `.Symbol` after a
// package directory is allowed), every `./dir` argument of a go command,
// in prose or in a fenced block, must be a directory, and every
// backticked Test, Fuzz, Benchmark or Example name must be a function in
// some _test.go file (`TestFig*` names a prefix, `T{2,10}` two names).
func TestDocReferences(t *testing.T) {
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range testFuncRE.FindAllStringSubmatch(string(src), -1) {
			funcs[m[1]] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range referenceDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		var commands []string
		for _, m := range fenceRE.FindAllStringSubmatch(text, -1) {
			commands = append(commands, strings.ReplaceAll(m[1], "\\\n", " "))
		}
		prose := fenceRE.ReplaceAllString(text, "")
		for _, m := range codeSpanRE.FindAllStringSubmatch(prose, -1) {
			span := strings.Join(strings.Fields(m[1]), " ")
			commands = append(commands, span)
			for _, tok := range strings.Fields(span) {
				p := strings.TrimRight(tok, ".,:;)")
				if hasPathPrefix(p) && !pathExists(p) {
					t.Errorf("%s: `%s` names %s, which does not exist", doc, span, p)
				}
				if testNameRE.MatchString(p) && !testExists(p, funcs) {
					t.Errorf("%s: `%s` names %s, which no _test.go file defines", doc, span, p)
				}
			}
		}
		for _, c := range commands {
			for _, cmd := range goCmdRE.FindAllString(c, -1) {
				for _, arg := range pkgArgRE.FindAllStringSubmatch(cmd, -1) {
					dir := strings.TrimSuffix(strings.TrimSuffix(arg[1], "..."), "/")
					if st, err := os.Stat(dir); err != nil || !st.IsDir() {
						t.Errorf("%s: %q runs %s, which is not a directory", doc, strings.TrimSpace(cmd), arg[1])
					}
				}
			}
		}
	}
}

func hasPathPrefix(p string) bool {
	for _, pre := range pathPrefixes {
		if strings.HasPrefix(p, pre) {
			return true
		}
	}
	return false
}

// pathExists accepts a file, a directory, a glob with a match, or a
// package directory followed by `.Symbol` (internal/core.Options).
func pathExists(p string) bool {
	if m, _ := filepath.Glob(p); len(m) > 0 {
		return true
	}
	dir, base := filepath.Split(p)
	if i := strings.IndexByte(base, '.'); i > 0 {
		st, err := os.Stat(dir + base[:i])
		return err == nil && st.IsDir()
	}
	return false
}

// testExists reports whether funcs holds name: every alternative of a
// `{a,b}` group, or some function with the prefix before a trailing `*`.
func testExists(name string, funcs map[string]bool) bool {
	if pre, rest, ok := strings.Cut(name, "{"); ok {
		alts, post, _ := strings.Cut(rest, "}")
		for _, a := range strings.Split(alts, ",") {
			if !testExists(pre+a+post, funcs) {
				return false
			}
		}
		return true
	}
	if pre, ok := strings.CutSuffix(name, "*"); ok {
		for f := range funcs {
			if strings.HasPrefix(f, pre) {
				return true
			}
		}
		return false
	}
	return funcs[name]
}

package progressdb_test

import (
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
)

// pathPrefixes are the top-level directories a backticked path is
// checked against; other spans (identifiers, flags, SQL) are left alone.
var pathPrefixes = []string{"internal/", "cmd/", "client/", "examples/", "results/", "bench/"}

// TestDocReferences fails when a document names a path or a `go run` /
// `go test` package that is not in the tree: every backticked path under
// one of pathPrefixes must exist (a trailing `.Symbol` after a package
// directory is allowed), and every `./dir` argument of a go command,
// in prose or in a fenced block, must be a directory.
func TestDocReferences(t *testing.T) {
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
				if p := strings.TrimRight(tok, ".,:;)"); hasPathPrefix(p) && !pathExists(p) {
					t.Errorf("%s: `%s` names %s, which does not exist", doc, span, p)
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

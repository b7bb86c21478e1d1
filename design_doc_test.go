package topk

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// citedTest matches a test, fuzz target or benchmark name in prose. A name
// followed by "..." cites every name it prefixes (`BenchmarkExp...`).
var citedTest = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*(?:\.\.\.|…)?`)

// definedTest matches a top-level test, fuzz target or benchmark in a
// _test.go file.
var definedTest = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)

// definedTests returns every test, fuzz target and benchmark the module's
// _test.go files define under root, skipping testdata (analyzer fixtures
// are not tests).
func definedTests(root string) (map[string]bool, error) {
	names := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range definedTest.FindAllSubmatch(src, -1) {
			names[string(m[1])] = true
		}
		return nil
	})
	return names, err
}

// undefinedCitations returns, sorted and once each, the names doc cites
// that no definition resolves: a plain name must be defined, a "..." name
// must prefix a definition. With patterns, doc's names are go test -run
// and -bench patterns, which match unanchored, so every name must only
// prefix a definition.
func undefinedCitations(doc []byte, defined map[string]bool, patterns bool) []string {
	var missing []string
	for _, cite := range citedTest.FindAllString(string(doc), -1) {
		name := strings.TrimRight(cite, ".…")
		family := patterns || name != cite
		ok := defined[name]
		for d := range defined {
			if ok || !family {
				break
			}
			ok = strings.HasPrefix(d, name)
		}
		if !ok && !slices.Contains(missing, cite) {
			missing = append(missing, cite)
		}
	}
	slices.Sort(missing)
	return missing
}

// citedCommand matches a command path (`cmd/topkd`, ./cmd/topkbench) in
// prose; its group is the command's directory name.
var citedCommand = regexp.MustCompile(`\bcmd/(\w+)`)

// missingCommands returns, sorted and once each, the cmd/<name> paths doc
// cites that are not directories under root.
func missingCommands(doc []byte, root string) []string {
	var missing []string
	for _, m := range citedCommand.FindAllSubmatch(doc, -1) {
		cite := "cmd/" + string(m[1])
		if fi, err := os.Stat(filepath.Join(root, cite)); (err != nil || !fi.IsDir()) && !slices.Contains(missing, cite) {
			missing = append(missing, cite)
		}
	}
	slices.Sort(missing)
	return missing
}

// TestDesignCitesOnlyTestsThatExist holds the documents that send a reader
// to a test or a command — DESIGN.md, README.md, the CI workflows and the
// verify skill — to what the module has: every Test, Fuzz or Benchmark name
// they cite is defined by a _test.go file of this module, and every
// cmd/<name> they cite is a directory. Renaming or deleting a test or a
// command cannot leave a document pointing at nothing, nor a workflow's
// -run pattern silently running nothing.
func TestDesignCitesOnlyTestsThatExist(t *testing.T) {
	workflows, err := filepath.Glob(".github/workflows/*.yaml")
	if err != nil || len(workflows) == 0 {
		t.Fatalf("no CI workflows found (%v)", err)
	}
	defined, err := definedTests(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append([]string{"DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md"}, workflows...) {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if path == "DESIGN.md" && len(citedTest.FindAllString(string(doc), -1)) == 0 {
			t.Fatal("DESIGN.md cites no tests: the pattern no longer matches its prose")
		}
		if missing := undefinedCitations(doc, defined, path != "DESIGN.md"); len(missing) > 0 {
			t.Errorf("%s cites %d names no _test.go defines: %s", path, len(missing), strings.Join(missing, ", "))
		}
		if missing := missingCommands(doc, "."); len(missing) > 0 {
			t.Errorf("%s cites commands that do not exist: %s", path, strings.Join(missing, ", "))
		}
	}
}

// TestDesignCitationCheckCatchesMisspelling runs the citation checks on a
// misspelled name, a family no definition starts with, a -run pattern
// naming nothing, a command that does not exist, and the forms that must
// resolve.
func TestDesignCitationCheckCatchesMisspelling(t *testing.T) {
	defined := map[string]bool{"TestPlansGolden": true, "BenchmarkExpE1": true, "FuzzWireFrame": true}
	doc := []byte("`TestPlansGolden` pins plans (`TestPlanGolden` does not exist); `BenchmarkExp...` " +
		"and `BenchmarkExpE1` resolve, `BenchmarkExq...` does not; FuzzWireFrame, Testing and Benchmarks are prose.")
	got := undefinedCitations(doc, defined, false)
	if want := []string{"BenchmarkExq...", "TestPlanGolden"}; !slices.Equal(got, want) {
		t.Errorf("undefined citations = %q, want %q", got, want)
	}
	pattern := []byte("go test -run 'TestPlans|TestPlanGolden|FuzzWire' ./internal/opt")
	if got, want := undefinedCitations(pattern, defined, true), []string{"TestPlanGolden"}; !slices.Equal(got, want) {
		t.Errorf("undefined pattern citations = %q, want %q", got, want)
	}
	cmds := []byte("`cmd/topkd` and ./cmd/topkbench exist; cmd/nosuchcmd and ./cmd/nosuchcmd/ do not.")
	if got, want := missingCommands(cmds, "."), []string{"cmd/nosuchcmd"}; !slices.Equal(got, want) {
		t.Errorf("missing commands = %q, want %q", got, want)
	}
}

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
// must prefix a definition.
func undefinedCitations(doc []byte, defined map[string]bool) []string {
	var missing []string
	for _, cite := range citedTest.FindAllString(string(doc), -1) {
		name := strings.TrimRight(cite, ".…")
		family := name != cite
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

// TestDesignCitesOnlyTestsThatExist holds DESIGN.md to the tests it names
// as evidence: every Test, Fuzz or Benchmark name it cites is defined by a
// _test.go file of this module, so renaming or deleting a test cannot
// leave the design pointing at nothing.
func TestDesignCitesOnlyTestsThatExist(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	defined, err := definedTests(".")
	if err != nil {
		t.Fatal(err)
	}
	cited := len(citedTest.FindAllString(string(doc), -1))
	if cited == 0 {
		t.Fatal("DESIGN.md cites no tests: the pattern no longer matches its prose")
	}
	if missing := undefinedCitations(doc, defined); len(missing) > 0 {
		t.Errorf("DESIGN.md cites %d names no _test.go defines: %s", len(missing), strings.Join(missing, ", "))
	}
}

// TestDesignCitationCheckCatchesMisspelling runs the citation check on a
// misspelled name, a family no definition starts with, and the forms that
// must resolve.
func TestDesignCitationCheckCatchesMisspelling(t *testing.T) {
	defined := map[string]bool{"TestPlansGolden": true, "BenchmarkExpE1": true, "FuzzWireFrame": true}
	doc := []byte("`TestPlansGolden` pins plans (`TestPlanGolden` does not exist); `BenchmarkExp...` " +
		"and `BenchmarkExpE1` resolve, `BenchmarkExq...` does not; FuzzWireFrame, Testing and Benchmarks are prose.")
	got := undefinedCitations(doc, defined)
	if want := []string{"BenchmarkExq...", "TestPlanGolden"}; !slices.Equal(got, want) {
		t.Errorf("undefined citations = %q, want %q", got, want)
	}
}

package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// decodeInputs returns every committed document Decode is pinned on: the
// scenario corpus, testdata/*.yaml (every key once; every default) and
// the fuzz seeds, keyed by the name their golden file carries.
func decodeInputs(t *testing.T) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, pat := range []string{
		filepath.Join("..", "..", "scenarios", "*.yaml"),
		filepath.Join("testdata", "*.yaml"),
		filepath.Join("testdata", "fuzz", "FuzzScenarioDecode", "*"),
	} {
		paths, err := filepath.Glob(pat)
		if err != nil || len(paths) == 0 {
			t.Fatalf("no decode inputs under %s (%v)", pat, err)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			name := strings.TrimSuffix(filepath.Base(path), ".yaml")
			if filepath.Ext(path) != ".yaml" { // a fuzz seed
				// "go test fuzz v1\n[]byte(<quoted>)\n"
				_, lit, _ := strings.Cut(strings.TrimSpace(string(data)), "\n")
				doc, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
				if err != nil {
					t.Fatalf("%s: not a one-value fuzz seed: %v", path, err)
				}
				name, data = "fuzz-"+name, []byte(doc)
			}
			if _, dup := out[name]; dup {
				t.Fatalf("two decode inputs named %q", name)
			}
			out[name] = data
		}
	}
	return out
}

// TestDecodeCorpusGolden pins what Decode makes of every committed
// document: the decoded struct as JSON, or the error text of a refused
// one. The golden files were written by the hand-written decoder (the
// commit before the tag-driven one replaced it), so decode equivalence is
// a recorded fact, not something re-derived; regenerate with -update only
// when the format itself changes.
func TestDecodeCorpusGolden(t *testing.T) {
	for name, data := range decodeInputs(t) {
		var got []byte
		if s, err := Decode(data); err != nil {
			got = []byte("error: " + err.Error() + "\n")
		} else if got, err = json.MarshalIndent(s, "", "  "); err != nil {
			t.Fatalf("%s: %v", name, err)
		} else {
			got = append(got, '\n')
		}
		golden := filepath.Join("testdata", "golden", "decode", name+".json")
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("read golden (regenerate with -update): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s decodes differently from its golden:\ngot:\n%s\nwant:\n%s", name, got, want)
		}
	}
}

// TestSpecFieldsTagged: the decoder reads a key into the field tagged
// with it and refuses every other key, so a spec field without a tag
// would make its own key "unknown".
func TestSpecFieldsTagged(t *testing.T) {
	fields, seen := 0, map[reflect.Type]bool{}
	var walk func(typ reflect.Type)
	walk = func(typ reflect.Type) {
		for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct || seen[typ] {
			return
		}
		seen[typ] = true
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.Anonymous && (!f.IsExported() || f.Tag.Get("yaml") == "") {
				t.Errorf("%s.%s: every spec field is exported and carries a yaml tag", typ.Name(), f.Name)
			}
			fields++
			walk(f.Type)
		}
	}
	walk(reflect.TypeOf(Scenario{}))
	if fields < 50 {
		t.Fatalf("walked %d spec fields; the walk lost a struct", fields)
	}
}

// TestEveryKeyDocumented: docs/SCENARIOS.md's format block is a document
// Decode and Validate accept, and every key the decoder takes is written
// in it at its own path (a list's elements together document the
// element's keys).
func TestEveryKeyDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "SCENARIOS.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(doc), "```yaml\n")
	if !ok {
		t.Fatal("docs/SCENARIOS.md has no ```yaml format block")
	}
	block, _, _ = strings.Cut(block, "```")
	if s, err := Decode([]byte(block)); err != nil {
		t.Fatalf("the format block does not decode: %v", err)
	} else if err := s.Validate(); err != nil {
		t.Fatalf("the format block does not validate: %v", err)
	}
	root, err := parseYAML([]byte(block))
	if err != nil {
		t.Fatal(err)
	}
	var walk func(typ reflect.Type, nodes []any, path string)
	walk = func(typ reflect.Type, nodes []any, path string) {
		for typ.Kind() == reflect.Pointer {
			typ = typ.Elem()
		}
		switch typ.Kind() {
		case reflect.Slice:
			var elems []any
			for _, n := range nodes {
				list, _ := n.([]any)
				elems = append(elems, list...)
			}
			walk(typ.Elem(), elems, path+"[]")
		case reflect.Struct:
			for _, f := range reflect.VisibleFields(typ) {
				key, _, _ := strings.Cut(f.Tag.Get("yaml"), ",")
				if f.Anonymous || key == "" { // no tag: TestSpecFieldsTagged's finding
					continue
				}
				var vals []any
				for _, n := range nodes {
					if v, ok := n.(map[string]any)[key]; ok {
						vals = append(vals, v)
					}
				}
				if len(vals) == 0 {
					t.Errorf("%s.%s is not in docs/SCENARIOS.md's format block", path, key)
					continue
				}
				walk(f.Type, vals, path+"."+key)
			}
		}
	}
	walk(reflect.TypeOf(Scenario{}), []any{root}, "scenario")
}

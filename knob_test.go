package infobus

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// Knob ceilings: the exported *Config / *Options structs under internal/ and
// their exported fields. A change that adds a field deletes one, or lowers
// nothing and raises these in the open.
const (
	maxKnobStructs = 16
	maxKnobFields  = 88
)

// TestKnobBudget counts the settings the internal layers export: every
// exported struct type whose name ends in Config or Options, declared in a
// non-test file under internal/, and its exported fields.
func TestKnobBudget(t *testing.T) {
	fset := token.NewFileSet()
	var structs, fields []string
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			name := ts.Name.Name
			st, ok := ts.Type.(*ast.StructType)
			if !ok || !ast.IsExported(name) || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
				return false
			}
			structs = append(structs, pkg+"."+name)
			for _, fld := range st.Fields.List {
				for _, id := range fld.Names {
					if id.IsExported() {
						fields = append(fields, pkg+"."+name+"."+id.Name)
					}
				}
				if len(fld.Names) == 0 { // embedded: named by its type
					if id := embeddedName(fld.Type); id != "" && ast.IsExported(id) {
						fields = append(fields, pkg+"."+name+"."+id)
					}
				}
			}
			return false
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(structs) > maxKnobStructs || len(fields) > maxKnobFields {
		sort.Strings(fields)
		t.Errorf("%d Config/Options structs (ceiling %d) with %d exported fields (ceiling %d):\n  %s",
			len(structs), maxKnobStructs, len(fields), maxKnobFields, strings.Join(fields, "\n  "))
	}
	t.Logf("%d Config/Options structs, %d exported fields", len(structs), len(fields))
}

// embeddedName returns the field name an embedded type gives its field.
func embeddedName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return embeddedName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}

package infobus

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"infobus/internal/telemetry"
)

// Knob ceilings: the exported *Config / *Options structs under internal/ and
// their exported fields. A change that adds a field deletes one, or raises
// these in the open; a change that deletes one lowers them, since the test
// also fails on a count below its ceiling.
const (
	maxKnobStructs = 16
	maxKnobFields  = 79
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
	if len(structs) < maxKnobStructs {
		t.Errorf("%d Config/Options structs: lower the ceiling to %d", len(structs), len(structs))
	}
	if len(fields) < maxKnobFields {
		t.Errorf("%d exported fields: lower the ceiling to %d", len(fields), len(fields))
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

// TestFacadeCarriesNoWiring: a facade config holds what an operator sets,
// never the wiring one layer hands the next. Walking every config type the
// facade exports, through nested structs, pointers, slices and maps, no
// exported field may hold a telemetry registry, flight recorder or alarm
// engine: each of those has one owner, the node that creates it.
func TestFacadeCarriesNoWiring(t *testing.T) {
	wiring := map[reflect.Type]bool{
		reflect.TypeFor[*telemetry.Registry](): true,
		reflect.TypeFor[*telemetry.Recorder](): true,
		reflect.TypeFor[*telemetry.Engine]():   true,
	}
	seen := map[reflect.Type]bool{}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		if wiring[typ] {
			t.Errorf("%s is a %v: wiring, not a setting", path, typ)
			return
		}
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map:
			walk(path, typ.Elem())
		case reflect.Struct:
			for i := range typ.NumField() {
				if f := typ.Field(i); f.IsExported() {
					walk(path+"."+f.Name, f.Type)
				}
			}
		}
	}
	for _, typ := range []reflect.Type{
		reflect.TypeFor[HostConfig](),
		reflect.TypeFor[RouterOptions](),
		reflect.TypeFor[ReplicationConfig](),
		reflect.TypeFor[NetConfig](),
		reflect.TypeFor[RMIDialOptions](),
		reflect.TypeFor[RMIServerOptions](),
		reflect.TypeFor[DiscoveryOptions](),
	} {
		walk(typ.Name(), typ)
	}
	for _, typ := range []reflect.Type{reflect.TypeFor[ReliableConfig](), reflect.TypeFor[TelemetryConfig](),
		reflect.TypeFor[HealthConfig]()} {
		if !seen[typ] {
			t.Errorf("%v was not reached from HostConfig", typ)
		}
	}
}

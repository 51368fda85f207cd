package incremental_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestFieldStaysPacked pins that a Field — and so core.NewSession —
// forms and adopts its planes without a per-node detour: no non-test
// file of the package calls a rule's scalar Init or Step, packs a
// []bool (SetBools) or unpacks one (Bools). The word path underneath
// is pinned by simnet's TestBitsetFormsWithoutScalarRule.
func TestFieldStaysPacked(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	forbidden := map[string]bool{"Init": true, "Step": true, "SetBools": true, "Bools": true}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && forbidden[sel.Sel.Name] {
					t.Errorf("%s: %s() on the field's formation path", fset.Position(call.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
	}
}

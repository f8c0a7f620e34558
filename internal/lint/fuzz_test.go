package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// FuzzAllowDirectives hardens the directive scanner against hostile comment
// text: whatever parses as Go must never panic the scanner, every accepted
// suppression must name a known analyzer, and everything else spelled like a
// //lint: directive must surface as a malformed-directive diagnostic rather
// than silently suppressing.
func FuzzAllowDirectives(f *testing.F) {
	seeds := []string{
		"package p\n\nvar x = 1 //lint:allow determinism benchmark timing only\n",
		"package p\n\n//lint:allow nosuchanalyzer some reason\nvar x = 1\n",
		"package p\n\n//lint:allow determinism\nvar x = 1\n",
		"package p\n\n//lint:allow\nvar x = 1\n",
		"package p\r\n\r\nvar x = 1 //lint:allow determinism crlf reason\r\n",
		"package p\n\n//lint:detroot\nfunc F() {}\n",
		"package p\n\n//lint:allocfree\nfunc F() {}\n",
		"package p\n\n//lint:detroot trailing junk\nfunc F() {}\n",
		"package p\n\n//lint:alow determinism typo in verb\nvar x = 1\n",
		"package p\n\n/*lint:allow determinism block comment*/\nvar x = 1\n",
		"package p\n\n//lint:allow determinism \t reason with \ttabs \n",
		"package p\n\n//lint:allow determinism reason //lint:allow unitsafety nested\n",
		"package p\n\n//lint:allow detreach retired name\nvar x = 1\n",
		"package p\n\nfunc F() {\n\t//lint:allocfree not a doc comment\n}\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	f.Fuzz(func(t *testing.T, src string) {
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments)
		if err != nil {
			t.Skip("not valid Go")
		}
		allowed, bad := directives(fset, []*ast.File{file})
		for key := range allowed {
			if !known[key.analyzer] {
				t.Errorf("accepted suppression for unknown analyzer %q", key.analyzer)
			}
			if key.line <= 0 || key.file == "" {
				t.Errorf("accepted suppression with bogus position %s:%d", key.file, key.line)
			}
		}
		for _, d := range bad {
			if d.Analyzer != "lint" {
				t.Errorf("malformed-directive diagnostic attributed to %q, want lint", d.Analyzer)
			}
			if !strings.Contains(d.Message, "malformed directive") &&
				!strings.Contains(d.Message, "annotation must be in a function's doc comment") {
				t.Errorf("unexpected diagnostic message: %s", d.Message)
			}
			if d.Pos.Line <= 0 {
				t.Errorf("diagnostic with bogus line: %+v", d.Pos)
			}
		}
	})
}

package client

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestClientMetricsDocumented: every fixed client.* metric name this
// package registers is in the metric table of docs/OBSERVABILITY.md, and
// every fixed client.* name in that table is registered here. Templated
// names (client.op.<op>) are built at run time and are not compared.
func TestClientMetricsDocumented(t *testing.T) {
	code := map[string]bool{}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		ast.Inspect(pkg, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Counter" && sel.Sel.Name != "Gauge" && sel.Sel.Name != "Histogram") {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil && strings.HasPrefix(name, "client.") {
					code[name] = true
				}
			}
			return true
		})
	}
	if len(code) == 0 {
		t.Fatal("found no fixed client.* metric names in the package source")
	}

	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	name := regexp.MustCompile("`(client\\.[^`]*)`")
	for _, line := range strings.Split(string(doc), "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		firstCell := strings.SplitN(line, "|", 3)[1]
		for _, m := range name.FindAllStringSubmatch(firstCell, -1) {
			if !strings.Contains(m[1], "<") {
				documented[m[1]] = true
			}
		}
	}

	for n := range code {
		if !documented[n] {
			t.Errorf("metric %s is registered in internal/client but missing from the docs/OBSERVABILITY.md metric table", n)
		}
	}
	for n := range documented {
		if !code[n] {
			t.Errorf("metric %s is in the docs/OBSERVABILITY.md metric table but internal/client never registers it", n)
		}
	}
}

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

// metricPackages are the packages whose metric names the doc-drift test
// compares with docs/OBSERVABILITY.md, relative to this package.
var metricPackages = []string{".", "../ssp", "../shard", "../netsim"}

// metricFamily matches the metric names those packages emit.
var metricFamily = regexp.MustCompile(`^(client|ssp|shard|netsim)\.`)

// metricCalls are the callees whose first argument is a metric name: the
// obs.Registry instrument constructors and the packages' nil-safe
// helpers around them (ReconnectClient.count, shard's count/gaugeAdd).
var metricCalls = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true,
	"count": true, "gaugeAdd": true,
}

// TestClientMetricsDocumented: every fixed client.*, ssp.*, shard.* and
// netsim.* metric name the client stack registers (internal/client,
// internal/ssp, internal/shard, internal/netsim) is in the metric table
// of docs/OBSERVABILITY.md, and every fixed name of those families in
// that table is registered there. Templated names (a literal prefix
// ending in "." completed at run time, a `<op>` row) are not compared.
func TestClientMetricsDocumented(t *testing.T) {
	code := map[string]bool{}
	fset := token.NewFileSet()
	for _, dir := range metricPackages {
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
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
				var callee string
				switch fun := call.Fun.(type) {
				case *ast.SelectorExpr:
					callee = fun.Sel.Name
				case *ast.Ident:
					callee = fun.Name
				}
				if !metricCalls[callee] {
					return true
				}
				if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, err := strconv.Unquote(lit.Value)
					if err == nil && metricFamily.MatchString(name) && !strings.HasSuffix(name, ".") {
						code[name] = true
					}
				}
				return true
			})
		}
	}
	for _, family := range []string{"client.", "ssp.", "shard.", "netsim."} {
		found := false
		for n := range code {
			found = found || strings.HasPrefix(n, family)
		}
		if !found {
			t.Fatalf("found no fixed %s* metric names in the scanned sources", family)
		}
	}

	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	name := regexp.MustCompile("`((?:client|ssp|shard|netsim)\\.[^`]*)`")
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
			t.Errorf("metric %s is registered in the code but missing from the docs/OBSERVABILITY.md metric table", n)
		}
	}
	for n := range documented {
		if !code[n] {
			t.Errorf("metric %s is in the docs/OBSERVABILITY.md metric table but the code never registers it", n)
		}
	}
}

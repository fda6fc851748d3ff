package ckptsched_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/cycleharvest/ckptsched/internal/ckptnet"
	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/imagestore"
	"github.com/cycleharvest/ckptsched/internal/markov"
	"github.com/cycleharvest/ckptsched/internal/obs"
	"github.com/cycleharvest/ckptsched/internal/parallel"
	"github.com/cycleharvest/ckptsched/internal/serve"
	"github.com/cycleharvest/ckptsched/internal/sim"
)

// registerEverything registers every metric series the repository can
// register on one registry: each package Instrument hook, a manager's
// Options.Metrics, a scheduling server (with its route SLOs), the
// runtime collector, an instrumented tracer and a simulator history.
func registerEverything(t *testing.T) []string {
	t.Helper()
	reg := obs.NewRegistry()
	for _, instrument := range []func(*obs.Registry){fit.Instrument, markov.Instrument, parallel.Instrument, imagestore.Instrument} {
		instrument(reg)
		defer instrument(nil)
	}
	if _, err := ckptnet.NewManagerOpts(ckptnet.StaticAssigner(fit.ModelExponential, []float64{1e-3}, 1), ckptnet.Options{Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	serve.New(serve.Options{Registry: reg})
	obs.NewRuntimeCollector(reg)
	obs.NewTracer(obs.TracerOptions{Metrics: reg})
	hist := obs.NewHistory(obs.HistoryOptions{Registry: reg, Window: 1})
	if _, err := sim.Run([]float64{10}, sim.FixedInterval(1), sim.Config{History: hist}); err != nil {
		t.Fatal(err)
	}

	s := reg.Snapshot()
	names := appendKeys(nil, s.Counters)
	names = appendKeys(names, s.Gauges)
	names = appendKeys(names, s.FloatGauges)
	names = appendKeys(names, s.Histograms)
	slices.Sort(names)
	return names
}

func appendKeys[V any](names []string, m map[string]V) []string {
	for k := range m {
		names = append(names, k)
	}
	return names
}

// designMetrics parses the metric-name table of DESIGN.md §11: the
// backticked names in the Metrics column, with {a,b} alternatives
// expanded.
func designMetrics(t *testing.T) []string {
	t.Helper()
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(b)
	start := strings.Index(doc, "\n## 11.")
	end := strings.Index(doc, "\n## 12.")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §11")
	}
	tick := regexp.MustCompile("`([^`]+)`")
	var names []string
	for _, line := range strings.Split(doc[start:end], "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 4 || !strings.HasPrefix(line, "|") {
			continue // not a table row
		}
		for _, m := range tick.FindAllStringSubmatch(cells[2], -1) {
			names = append(names, expandBraces(m[1])...)
		}
	}
	slices.Sort(names)
	return names
}

// expandBraces expands the first {a,b,…} group of s, recursively.
func expandBraces(s string) []string {
	open := strings.Index(s, "{")
	if open < 0 {
		return []string{s}
	}
	end := open + strings.Index(s[open:], "}")
	var out []string
	for _, alt := range strings.Split(s[open+1:end], ",") {
		out = append(out, expandBraces(s[:open]+alt+s[end+1:])...)
	}
	return out
}

// watchPanelNames reads the series names of ckpt-report watch's fixed
// panels from its source.
func watchPanelNames(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "cmd/ckpt-report/watch.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "watchPanels" {
			return true
		}
		ast.Inspect(vs, func(n ast.Node) bool {
			kv, ok := n.(*ast.KeyValueExpr)
			if !ok {
				return true
			}
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "name" {
				if lit, ok := kv.Value.(*ast.BasicLit); ok {
					name, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					names = append(names, name)
				}
			}
			return true
		})
		return false
	})
	if len(names) == 0 {
		t.Fatal("found no watchPanels names in cmd/ckpt-report/watch.go")
	}
	return names
}

// TestMetricListMatchesDesign keeps DESIGN.md §11's table the one list
// of every metric series: it must name exactly what the code
// registers, and every series ckpt-report watch plots must be one of
// them.
func TestMetricListMatchesDesign(t *testing.T) {
	registered := registerEverything(t)
	documented := designMetrics(t)
	for _, n := range registered {
		if !slices.Contains(documented, n) {
			t.Errorf("%s is registered but missing from DESIGN.md §11", n)
		}
	}
	for _, n := range documented {
		if !slices.Contains(registered, n) {
			t.Errorf("DESIGN.md §11 lists %s, which nothing registers", n)
		}
	}
	for _, n := range watchPanelNames(t) {
		if !slices.Contains(registered, n) {
			t.Errorf("ckpt-report watch plots %s, which nothing registers", n)
		}
	}
}

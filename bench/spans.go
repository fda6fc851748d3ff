package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one recorded call from the harness into a layer.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 = root
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// recorder keeps the traced run's spans in memory until the run ends.
// Spans are opened and closed on the orchestrating goroutine only, so
// the innermost open span is the parent of the next one. A nil recorder
// records nothing: the untraced run passes nil.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int // indexes into spans
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// spanHandle closes one span; a nil handle is a no-op.
type spanHandle struct {
	rec *recorder
	idx int
}

func (r *recorder) start(name string) *spanHandle {
	if r == nil {
		return nil
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name,
		StartUs: float64(time.Since(r.t0)) / 1e3,
	})
	r.open = append(r.open, len(r.spans)-1)
	return &spanHandle{rec: r, idx: len(r.spans) - 1}
}

func (h *spanHandle) end() {
	if h == nil {
		return
	}
	r := h.rec
	r.spans[h.idx].EndUs = float64(time.Since(r.t0)) / 1e3
	r.open = r.open[:len(r.open)-1]
}

// selfSeconds sums, per span name, each span's duration minus the part
// its child spans cover, over the subtree under the spans named root.
func (r *recorder) selfSeconds(root string) map[string]float64 {
	covered := make(map[int]float64)
	for _, s := range r.spans {
		covered[s.Parent] += s.EndUs - s.StartUs
	}
	inTree := make(map[int]bool)
	self := make(map[string]float64)
	for _, s := range r.spans { // parents precede children
		if s.Name == root || inTree[s.Parent] {
			inTree[s.ID] = true
			self[s.Name] += (s.EndUs - s.StartUs - covered[s.ID]) / 1e6
		}
	}
	return self
}

// writeFile dumps the spans as JSON.
func (r *recorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// budget is one phase's layer table: the untraced end-to-end figure,
// the self time of each layer in the same unit, and what is left.
type budget struct {
	phase, what, unit string
	total             float64
	rows              []budgetRow
}

type budgetRow struct {
	layer string
	self  float64
}

func (b *budget) add(layer string, self float64) {
	b.rows = append(b.rows, budgetRow{layer, self})
}

// residual is the end-to-end figure minus every layer's self time.
func (b *budget) residual() float64 {
	r := b.total
	for _, row := range b.rows {
		r -= row.self
	}
	return r
}

func (b *budget) print(w io.Writer) {
	fmt.Fprintf(w, "budget %s: %s = %.4g %s (untraced)\n", b.phase, b.what, b.total, b.unit)
	rows := append([]budgetRow(nil), b.rows...)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	rows = append(rows, budgetRow{"(residual)", b.residual()})
	for _, row := range rows {
		fmt.Fprintf(w, "  %-34s %12.4g %-5s %6.1f %%\n", row.layer, row.self, b.unit, 100*row.self/b.total)
	}
}

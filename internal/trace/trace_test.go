package trace

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/cycleharvest/ckptsched/internal/dist"
)

func ts(sec int64) time.Time { return time.Unix(sec, 0).UTC() }

func TestAppendKeepsChronologicalOrder(t *testing.T) {
	tr := &Trace{Machine: "m1"}
	tr.Append(Record{Start: ts(100), Duration: 10})
	tr.Append(Record{Start: ts(50), Duration: 5})
	tr.Append(Record{Start: ts(75), Duration: 7})
	tr.Append(Record{Start: ts(200), Duration: 20})
	want := []float64{5, 7, 10, 20}
	got := tr.Durations()
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("durations[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestSplit(t *testing.T) {
	tr := &Trace{Machine: "m"}
	for i := range 40 {
		tr.Append(Record{Start: ts(int64(i * 100)), Duration: float64(i)})
	}
	train, test, err := tr.Split(25)
	if err != nil {
		t.Fatal(err)
	}
	if len(train) != 25 || len(test) != 15 {
		t.Fatalf("split sizes %d/%d", len(train), len(test))
	}
	if train[24] != 24 || test[0] != 25 {
		t.Errorf("split boundary wrong: %g / %g", train[24], test[0])
	}
	// Default n.
	train, _, err = tr.Split(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(train) != DefaultTrainingSize {
		t.Errorf("default training size = %d", len(train))
	}
	// Too short.
	short := &Trace{Machine: "s"}
	for i := range 25 {
		short.Append(Record{Start: ts(int64(i)), Duration: 1})
	}
	if _, _, err := short.Split(25); err == nil {
		t.Error("split of 25-record trace with n=25 should error")
	}
}

func TestSetAddAndFilter(t *testing.T) {
	s := NewSet()
	for i := range 30 {
		s.Add("big", Record{Start: ts(int64(i)), Duration: 1})
	}
	for i := range 5 {
		s.Add("small", Record{Start: ts(int64(i)), Duration: 1})
	}
	if got := s.Machines(); len(got) != 2 || got[0] != "big" || got[1] != "small" {
		t.Errorf("machines = %v", got)
	}
	filtered := s.WithAtLeast(10)
	if len(filtered) != 1 || filtered[0].Machine != "big" {
		t.Errorf("WithAtLeast = %v", filtered)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	opts := GenerateOptions{
		N:     100,
		Avail: dist.NewWeibull(0.43, 3409),
		Seed:  5,
	}
	a, err := Generate(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 100 || b.Len() != 100 {
		t.Fatalf("lengths %d/%d", a.Len(), b.Len())
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("generation not deterministic at %d", i)
		}
	}
	// Timestamps strictly increase.
	for i := 1; i < a.Len(); i++ {
		if !a.Records[i].Start.After(a.Records[i-1].Start) {
			t.Errorf("timestamps not increasing at %d", i)
		}
	}
	if a.Machine != "synthetic" {
		t.Errorf("default machine name = %q", a.Machine)
	}
}

func TestGenerateWithBusyGaps(t *testing.T) {
	tr, err := Generate(GenerateOptions{
		N:     50,
		Avail: dist.NewExponential(0.01),
		Busy:  dist.NewExponential(0.001),
		Seed:  9,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Gaps between successive starts must exceed the duration of the
	// earlier record (there is always a busy period).
	for i := 1; i < tr.Len(); i++ {
		gap := tr.Records[i].Start.Sub(tr.Records[i-1].Start).Seconds()
		if gap < tr.Records[i-1].Duration {
			t.Errorf("record %d overlaps previous availability", i)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(GenerateOptions{N: 0, Avail: dist.NewExponential(1)}); err == nil {
		t.Error("N=0 should error")
	}
	if _, err := Generate(GenerateOptions{N: 5}); err == nil {
		t.Error("nil distribution should error")
	}
}

// TestPaperSyntheticTrace generates the paper's Table 2 workload —
// 5000 durations from Weibull(0.43, 3409) — and checks its sample mean.
func TestPaperSyntheticTrace(t *testing.T) {
	tr, err := Generate(GenerateOptions{N: 5000, Avail: dist.NewWeibull(0.43, 3409), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 5000 {
		t.Fatalf("len = %d, want 5000", tr.Len())
	}
	// The sample mean should be near the analytic mean of
	// Weibull(0.43, 3409): β·Γ(1+1/α) ≈ 9147 s.
	want := 3409 * math.Gamma(1+1/0.43)
	sum := 0.0
	for _, d := range tr.Durations() {
		sum += d
	}
	if got := sum / 5000; math.Abs(got-want)/want > 0.15 {
		t.Errorf("sample mean %g, want ≈%g", got, want)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := NewSet()
	s.Add("alpha", Record{Start: ts(1000), Duration: 12.5})
	s.Add("alpha", Record{Start: ts(2000), Duration: 900})
	s.Add("beta", Record{Start: ts(1500), Duration: 3.25})

	var buf bytes.Buffer
	if err := WriteCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "machine,start_unix,duration_s,censored\n") {
		t.Errorf("missing header: %q", buf.String())
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Traces) != 2 {
		t.Fatalf("machines = %v", got.Machines())
	}
	a := got.Traces["alpha"]
	if a.Len() != 2 || a.Records[0].Duration != 12.5 || a.Records[1].Duration != 900 {
		t.Errorf("alpha = %+v", a.Records)
	}
	if !a.Records[0].Start.Equal(ts(1000)) {
		t.Errorf("alpha start = %v", a.Records[0].Start)
	}
	b := got.Traces["beta"]
	if b.Len() != 1 || b.Records[0].Duration != 3.25 {
		t.Errorf("beta = %+v", b.Records)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"bad columns", "a,b\n"},
		{"bad start", "m,xx,5\n"},
		{"bad duration", "m,100,xx\n"},
		{"negative duration", "m,100,-5\n"},
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// Headerless three-column data parses fine (censored defaults to
	// false).
	s, err := ReadCSV(strings.NewReader("m,100,5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Traces["m"].Len() != 1 || s.Traces["m"].Records[0].Censored {
		t.Error("headerless row not parsed")
	}
	// Bad censored flag.
	if _, err := ReadCSV(strings.NewReader("m,100,5,x\n")); err == nil {
		t.Error("bad censored flag should error")
	}
}

func TestCSVCensoredRoundTrip(t *testing.T) {
	s := NewSet()
	s.Add("m", Record{Start: ts(10), Duration: 100})
	s.Add("m", Record{Start: ts(500), Duration: 250, Censored: true})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs := got.Traces["m"].Records
	if len(recs) != 2 || recs[0].Censored || !recs[1].Censored {
		t.Errorf("censored flags lost: %+v", recs)
	}
	durs, cens := got.Traces["m"].Observations()
	if durs[1] != 250 || !cens[1] || cens[0] {
		t.Errorf("Observations = %v, %v", durs, cens)
	}
}

func TestSaveLoadCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "traces.csv")
	s := NewSet()
	s.Add("m", Record{Start: ts(10), Duration: 42})
	if err := SaveCSV(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Traces["m"].Records[0].Duration != 42 {
		t.Error("round trip through file failed")
	}
	if _, err := LoadCSV(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("missing file should error")
	}
}

package experiments

import (
	"fmt"
	"strings"

	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/obs"
)

// modelHeaders are the column titles in the paper's order.
var modelHeaders = map[fit.Model]string{
	fit.ModelExponential: "Exp.",
	fit.ModelWeibull:     "Weib.",
	fit.ModelHyperexp2:   "2-ph Hyper.",
	fit.ModelHyperexp3:   "3-ph Hyper.",
}

// RenderTable renders a Table 1/3-style grid as fixed-width text.
func RenderTable(t *Table, decimals int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Name)
	fmt.Fprintf(&b, "%-6s", "CTime")
	for _, m := range fit.Models {
		fmt.Fprintf(&b, " | %-26s", modelHeaders[m])
	}
	b.WriteString("\n")
	b.WriteString(strings.Repeat("-", 6+4*29))
	b.WriteString("\n")
	for ci, c := range t.CTimes {
		fmt.Fprintf(&b, "%-6g", c)
		for _, m := range fit.Models {
			cell := t.Cells[m][ci]
			entry := fmt.Sprintf("%.*f ± %.*f %s",
				decimals, cell.CI.Mean, decimals, cell.CI.HalfWidth, cell.Letters())
			fmt.Fprintf(&b, " | %-26s", strings.TrimSpace(entry))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RenderFigure renders Figure 3/4-style series as an aligned text
// table (one row per checkpoint duration, one column per model) —
// the numbers a plotting tool would consume.
func RenderFigure(name string, ctimes []float64, series []Series, decimals int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", name)
	fmt.Fprintf(&b, "%-6s", "CTime")
	for _, s := range series {
		fmt.Fprintf(&b, " %14s", modelHeaders[s.Model])
	}
	b.WriteString("\n")
	for ci, c := range ctimes {
		fmt.Fprintf(&b, "%-6g", c)
		for _, s := range series {
			fmt.Fprintf(&b, " %14.*f", decimals, s.Mean[ci])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RenderTable2 renders the known-truth synthetic grid in the paper's
// layout (C=50 All, C=50 First-25, C=500 All, C=500 First-25).
func RenderTable2(t *Table2Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: efficiency on synthetic Weibull(shape=%g, scale=%g), n=%d\n",
		t.Shape, t.Scale, t.N)
	fmt.Fprintf(&b, "%-14s %10s %10s %10s %10s\n",
		"Distribution", "C=50 All", "C=50 F25", "C=500 All", "C=500 F25")
	for _, m := range fit.Models {
		fmt.Fprintf(&b, "%-14s", modelHeaders[m])
		for _, ct := range []float64{50, 500} {
			for _, all := range []bool{true, false} {
				if cell, ok := t.Cell(m, ct, all); ok {
					fmt.Fprintf(&b, " %10.3f", cell.Efficiency)
				} else {
					fmt.Fprintf(&b, " %10s", "-")
				}
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RenderLiveTable renders a Table 4/5-style live-campaign summary.
func RenderLiveTable(t *LiveTable) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (mean measured C ≈ %.0f s)\n", t.Name, t.MeanC)
	fmt.Fprintf(&b, "%-14s %6s %12s %14s %14s %12s\n",
		"Distribution", "Avg.", "Total Time", "Megabytes", "MB/Hour", "Samples")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-14s %6.3f %12.0f %14.0f %14.0f %12d\n",
			modelHeaders[r.Model], r.AvgEfficiency, r.TotalTime, r.MBUsed, r.MBPerHour, r.Samples)
	}
	return b.String()
}

// RenderValidation renders the §5.3 live-vs-simulation comparison.
func RenderValidation(v *ValidationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Validation (§5.3): live vs simulated efficiency, %s link\n", v.LinkName)
	fmt.Fprintf(&b, "%-14s %10s %10s %10s %10s\n", "Distribution", "Live", "Simulated", "Delta", "Samples")
	for _, r := range v.Rows {
		fmt.Fprintf(&b, "%-14s %10.3f %10.3f %+10.3f %10d\n",
			modelHeaders[r.Model], r.LiveEfficiency, r.SimEfficiency, r.Delta(), r.Samples)
	}
	return b.String()
}

// FigureCSV renders Figure 3/4-style series as plain CSV (one row per
// checkpoint duration) for external plotting tools.
func FigureCSV(ctimes []float64, series []Series) string {
	var b strings.Builder
	b.WriteString("ctime")
	for _, s := range series {
		fmt.Fprintf(&b, ",%s", s.Model)
	}
	b.WriteString("\n")
	for ci, c := range ctimes {
		fmt.Fprintf(&b, "%g", c)
		for _, s := range series {
			fmt.Fprintf(&b, ",%g", s.Mean[ci])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RenderDelta renders the delta-checkpointing experiment: full vs
// delta vs delta+variable-C per-model tables, the campaign-level
// bytes-on-wire comparison, and the dedup counters.
func RenderDelta(r *DeltaResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Delta experiment: %d sessions over %s, full vs delta vs delta+variable-C (dirty rate %g/s)\n\n",
		r.Sessions, r.LinkName, r.DirtyRate)
	for _, t := range []*LiveTable{r.Full, r.Delta, r.VarCost} {
		b.WriteString(RenderLiveTable(t) + "\n")
	}
	fmt.Fprintf(&b, "%-24s %12s %12s %14s\n", "Campaign aggregate", "Full", "Delta", "Delta+var-C")
	fmt.Fprintf(&b, "%-24s %12.3f %12.3f %14.3f\n",
		"Efficiency", r.FullEfficiency, r.DeltaEfficiency, r.VarCostEfficiency)
	fmt.Fprintf(&b, "%-24s %12.0f %12.0f %14.0f\n",
		"Bytes on wire (MB)", r.FullMB, r.DeltaMB, r.VarCostMB)
	fmt.Fprintf(&b, "%-24s %12.0f %12.0f %14.0f\n",
		"Bandwidth (MB/hour)", r.FullMBPerHour, r.DeltaMBPerHour, r.VarCostMBPerHour)
	fmt.Fprintf(&b, "%-24s %12s %12d %14d\n",
		"Delta checkpoints", "-", r.DeltaCheckpoints, r.VarCostCheckpoints)
	fmt.Fprintf(&b, "\nWire savings vs full: delta %.1f%%, delta+variable-C %.1f%%\n",
		r.SavingsPct(), r.VarCostSavingsPct())
	if r.FullWire != nil {
		fmt.Fprintf(&b, "\nNetwork overhead vs time (%.0f s bins, MB/s):\n", r.FullWire.Width())
		writeWireRow(&b, "full", r.FullWire)
		writeWireRow(&b, "delta", r.DeltaWire)
		writeWireRow(&b, "delta+var-C", r.VarCostWire)
	}
	return b.String()
}

// writeWireRow renders one campaign's bytes-on-wire series as a
// sparkline with its peak and mean rate.
func writeWireRow(b *strings.Builder, label string, w *obs.ByteSeries) {
	if w == nil {
		return
	}
	rates := w.MBPerSec()
	peak, sum := 0.0, 0.0
	for _, v := range rates {
		if v > peak {
			peak = v
		}
		sum += v
	}
	mean := 0.0
	if len(rates) > 0 {
		mean = sum / float64(len(rates))
	}
	fmt.Fprintf(b, "%-14s %s  peak %.2f  mean %.2f\n",
		label, obs.Sparkline(rates, len(rates)), peak, mean)
}

// RenderChaos renders the fault-injection experiment: clean vs chaos
// vs prediction-enabled per-model tables, the campaign-level deltas,
// the resilience counters, and the third campaign's predictor score
// card with its migration bytes.
func RenderChaos(r *ChaosResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos experiment: %d sessions over %s, clean vs fault-injected vs predicted\n\n", r.Sessions, r.LinkName)
	for _, t := range []*LiveTable{r.Clean, r.Chaos, r.Predict} {
		if t != nil {
			b.WriteString(RenderLiveTable(t) + "\n")
		}
	}
	fmt.Fprintf(&b, "%-24s %10s %10s %10s %10s\n", "Campaign aggregate", "Clean", "Chaos", "Delta", "Predicted")
	fmt.Fprintf(&b, "%-24s %10.3f %10.3f %+10.3f %10.3f\n",
		"Efficiency", r.CleanEfficiency, r.ChaosEfficiency, r.EfficiencyDelta(), r.PredictEfficiency)
	fmt.Fprintf(&b, "%-24s %10.0f %10.0f %+10.0f %10.0f\n",
		"Bandwidth (MB/hour)", r.CleanMBPerHour, r.ChaosMBPerHour, r.BandwidthDelta(), r.PredictMBPerHour)
	fmt.Fprintf(&b, "\nResilience: %d retries, %d torn transfers, %d schedule fallbacks, %.0f s in backoff\n",
		r.Retries, r.Torn, r.Fallbacks, r.BackoffSec)
	if r.Predict != nil {
		fmt.Fprintf(&b, "Prediction (%s, policy %s): %d alarms fired (%d hits, %d false, %d missed), %d migrations moving %.0f MB\n",
			r.PredictConfig, r.Policy, r.Predictions, r.PredHits, r.PredFalse, r.PredMissed,
			r.Migrations, r.MigrationMB)
	}
	return b.String()
}

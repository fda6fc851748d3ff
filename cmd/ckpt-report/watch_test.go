package main

import (
	"strings"
	"testing"

	"github.com/cycleharvest/ckptsched/internal/ckptnet"
	"github.com/cycleharvest/ckptsched/internal/obs"
	"github.com/cycleharvest/ckptsched/internal/serve"
)

// watchSnapshot scrapes a registry the way a server's history does:
// the runtime collector attached, a baseline and one closed window.
func watchSnapshot(reg *obs.Registry) obs.HistorySnapshot {
	h := obs.NewHistory(obs.HistoryOptions{Registry: reg, Window: 1, Capacity: 4})
	obs.NewRuntimeCollector(reg).Attach(h)
	h.Scrape(0)
	h.Scrape(1)
	return h.Snapshot()
}

// TestRenderWatchPanels renders the dashboard against histories shaped
// like ckpt-mgr's and ckpt-served's, and checks each shows the panels
// of the series it registers — and none of the other's.
func TestRenderWatchPanels(t *testing.T) {
	mgrReg := obs.NewRegistry()
	if _, err := ckptnet.NewManagerOpts(ckptnet.StaticAssigner(0, []float64{1e-3}, 1), ckptnet.Options{Metrics: mgrReg}); err != nil {
		t.Fatal(err)
	}
	srvReg := obs.NewRegistry()
	serve.New(serve.Options{Registry: srvReg})

	for _, c := range []struct {
		server    string
		reg       *obs.Registry
		want, not []string
	}{
		{"ckpt-mgr", mgrReg, []string{"checkpoints/s", "wire MB/s", "goroutines", "heap MB"}, []string{"req/s", "interval p99"}},
		{"ckpt-served", srvReg, []string{"req/s", "interval p99", "goroutines", "heap MB", "interval burn 5m"}, []string{"checkpoints/s", "wire MB/s"}},
	} {
		frame := renderWatch(watchSnapshot(c.reg), 20, c.server)
		for _, label := range c.want {
			if !strings.Contains(frame, label) {
				t.Errorf("%s dashboard lacks the %q panel:\n%s", c.server, label, frame)
			}
		}
		for _, label := range c.not {
			if strings.Contains(frame, label) {
				t.Errorf("%s dashboard shows %q, a series it does not register:\n%s", c.server, label, frame)
			}
		}
	}
}

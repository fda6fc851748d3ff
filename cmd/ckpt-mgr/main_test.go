package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/cycleharvest/ckptsched/internal/obs"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	rsp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer rsp.Body.Close()
	body, err := io.ReadAll(rsp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return rsp.StatusCode, string(body)
}

// TestMetricsServerEndpoints covers the observability mux: /healthz
// liveness, Prometheus /metrics (and no expvar /debug/vars), and the
// flight recorder snapshot — then a graceful shutdown.
func TestMetricsServerEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("ckptnet_test_total", "test counter").Add(3)
	tracer := obs.NewTracer(obs.TracerOptions{Metrics: reg})
	tracer.Event(1, 1, "probe")

	hist := obs.NewHistory(obs.HistoryOptions{Registry: reg, Window: 0.01, Capacity: 32})
	obs.NewRuntimeCollector(reg).Attach(hist)
	ms, err := startMetricsServer("127.0.0.1:0", reg, tracer, hist, false)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ms.Addr().String()

	// The self-scraper needs one baseline plus one window before the
	// history carries series.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body := get(t, base+"/metrics/history")
		var snap obs.HistorySnapshot
		if err := json.Unmarshal([]byte(body), &snap); err != nil {
			t.Fatalf("/metrics/history is not a snapshot: %v\n%s", err, body)
		}
		if snap.Windows > 0 {
			if _, ok := snap.Counters["ckptnet_test_total"]; !ok {
				t.Errorf("history missing ckptnet_test_total: %s", body)
			}
			if _, ok := snap.Gauges["go_goroutines"]; !ok {
				t.Errorf("history missing runtime metrics: %s", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("history never accumulated a window")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if code, body := get(t, base+"/healthz"); code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := get(t, base+"/metrics"); code != http.StatusOK || !strings.Contains(body, "ckptnet_test_total 3") {
		t.Errorf("/metrics = %d, missing counter:\n%s", code, body)
	}
	if code, _ := get(t, base+"/debug/vars"); code != http.StatusNotFound {
		t.Errorf("/debug/vars = %d, want 404", code)
	}
	_, body := get(t, base+"/debug/trace/snapshot")
	var events []map[string]any
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("snapshot is not a Chrome trace array: %v\n%s", err, body)
	}
	if len(events) != 1 || events[0]["name"] != "probe" {
		t.Errorf("snapshot = %v, want the probe event", events)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ms.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	// The listener must actually be released.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("server still answering after Shutdown")
	}
	ln, err := net.Listen("tcp", ms.Addr().String())
	if err != nil {
		t.Fatalf("address not released after Shutdown: %v", err)
	}
	ln.Close()
}

// TestMetricsServerNoTracer pins the degraded mux: without a tracer
// the snapshot route 404s while the rest stays up.
func TestMetricsServerNoTracer(t *testing.T) {
	ms, err := startMetricsServer("127.0.0.1:0", obs.NewRegistry(), nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		ms.Shutdown(ctx)
	}()
	base := "http://" + ms.Addr().String()
	if code, _ := get(t, base+"/debug/trace/snapshot"); code != http.StatusNotFound {
		t.Errorf("/debug/trace/snapshot without tracer = %d, want 404", code)
	}
	if code, _ := get(t, base+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz = %d", code)
	}
}

func TestParseFloats(t *testing.T) {
	vals, err := parseFloats(" 0.6, 0.4,0.01 ,0.0001")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 4 || vals[0] != 0.6 || vals[3] != 0.0001 {
		t.Fatalf("parseFloats = %v", vals)
	}
	if _, err := parseFloats("1,x"); err == nil {
		t.Error("bad parameter should error")
	}
}

package main

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServiceSmoke boots the wired service on an ephemeral port and
// walks the API over real HTTP: build a schedule, look up an interval,
// scrape metrics, drain.
func TestServiceSmoke(t *testing.T) {
	s, _, _ := newService(serviceConfig{
		maxSchedules: 1 << 10, maxFits: 1 << 10,
		intervalInflight: 256, intervalQueue: 1024,
		intervalWait: 5 * time.Millisecond, retryAfter: time.Second,
		historyWindow: time.Second, historyWindows: 64,
	})
	rn, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rn.Shutdown(ctx)
	}()
	base := "http://" + rn.Addr().String()

	body := `{"key":"m1","model":"exp","params":[0.000277],"c":60}`
	resp, err := http.Post(base+"/v1/schedule", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule = %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err = http.Get(base + "/v1/schedule/m1/interval?age=42")
	if err != nil {
		t.Fatalf("interval: %v", err)
	}
	var iv struct {
		T     float64 `json:"t"`
		Index int     `json:"index"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&iv); err != nil {
		t.Fatalf("decode interval: %v", err)
	}
	resp.Body.Close()
	if iv.T <= 0 {
		t.Fatalf("interval T = %g, want > 0", iv.T)
	}

	for _, path := range []string{"/healthz", "/metrics", "/metrics/history", "/debug/trace/snapshot"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if resp, err := http.Get(base + "/debug/vars"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /debug/vars = %v, %v; want 404", resp, err)
	} else {
		resp.Body.Close()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rn.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("server still answering after Shutdown")
	}
}

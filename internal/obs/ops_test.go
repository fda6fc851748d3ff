package obs

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestOpsMuxRoutes pins the shared route table: the always-on routes
// answer with nothing attached, and each optional route is mounted
// exactly when its backing object (or the pprof switch) is present.
func TestOpsMuxRoutes(t *testing.T) {
	reg := NewRegistry()
	bare := NewOpsMux(nil, nil, nil, false)
	full := NewOpsMux(reg, NewTracer(TracerOptions{}), NewHistory(HistoryOptions{Registry: reg}), true)
	for _, c := range []struct {
		path     string
		optional bool
	}{
		{"/metrics", false},
		{"/healthz", false},
		{"/metrics/history", true},
		{"/debug/trace/snapshot", true},
		{"/debug/pprof/", true},
		{"/debug/pprof/cmdline", true},
	} {
		get := func(mux *http.ServeMux) int {
			w := httptest.NewRecorder()
			mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, c.path, nil))
			return w.Code
		}
		wantBare := http.StatusOK
		if c.optional {
			wantBare = http.StatusNotFound
		}
		if got := get(bare); got != wantBare {
			t.Errorf("bare mux %s = %d, want %d", c.path, got, wantBare)
		}
		if got := get(full); got != http.StatusOK {
			t.Errorf("full mux %s = %d, want 200", c.path, got)
		}
	}
	// /debug/vars is not a route: /metrics is the one exposition.
	w := httptest.NewRecorder()
	full.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
	if w.Code != http.StatusNotFound {
		t.Errorf("/debug/vars = %d, want 404", w.Code)
	}
}

// Command ckpt-served runs the scheduling service: an HTTP server
// that fits availability models, builds checkpoint schedules, and
// answers interval lookups at fleet rate (DESIGN.md §15). It is the
// long-running counterpart to the one-shot ckpt-sched pipeline —
// drive it with cmd/ckpt-load to measure sustained throughput.
//
// Usage:
//
//	ckpt-served -addr 127.0.0.1:7420
//	ckpt-served -addr :7420 -max-schedules 100000 -trace served.json
//
// The API (all JSON):
//
//	POST /v1/fit                          {"key","model","data":[...]}
//	POST /v1/schedule                     {"key","model","data"|"params","c","r","telapsed","horizon","replace"}
//	GET  /v1/schedule/{key}               full stored schedule
//	GET  /v1/schedule/{key}/interval?age= current work interval, O(1)
//	GET  /healthz, /metrics, /metrics/history, /debug/trace/snapshot
//	GET  /debug/pprof/* (with -pprof)
//
// Overloaded routes shed with 429 + Retry-After; SIGINT/SIGTERM drains
// gracefully and, with -trace, writes the request timeline on the way
// out.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/cycleharvest/ckptsched/internal/cliflag"
	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/markov"
	"github.com/cycleharvest/ckptsched/internal/obs"
	"github.com/cycleharvest/ckptsched/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7420", "listen address")
	fastAddr := flag.String("fast-addr", "", "also serve the interval-only fast path on this address (e.g. 127.0.0.1:7421)")
	maxSchedules := flag.Int("max-schedules", 1<<16, "resident schedule bound (0 = unbounded)")
	maxFits := flag.Int("max-fits", 1<<17, "fit-cache entry bound (0 = unbounded)")
	intervalInflight := flag.Int("interval-inflight", 256, "interval-route admission: max in-flight requests")
	intervalQueue := flag.Int("interval-queue", 1024, "interval-route admission: max queued requests")
	intervalWait := flag.Duration("interval-wait", 5*time.Millisecond, "interval-route admission: max queue wait")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After advised on 429 responses")
	historyWindow := flag.Duration("history-window", time.Second, "windowed-metrics scrape cadence for /metrics/history (0 disables)")
	historyWindows := flag.Int("history-windows", 512, "windows retained by /metrics/history")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	tracePath := flag.String("trace", "", "write the request timeline here on shutdown (.json Chrome trace, .jsonl compact)")
	flag.Parse()

	var ck cliflag.Checker
	ck.NonNegativeInt("max-schedules", *maxSchedules)
	ck.NonNegativeInt("max-fits", *maxFits)
	ck.PositiveInt("interval-inflight", *intervalInflight)
	ck.NonNegativeInt("interval-queue", *intervalQueue)
	ck.PositiveInt("history-windows", *historyWindows)
	if err := ck.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "ckpt-served:", err)
		os.Exit(1)
	}

	cfg := serviceConfig{
		maxSchedules:     *maxSchedules,
		maxFits:          *maxFits,
		intervalInflight: *intervalInflight,
		intervalQueue:    *intervalQueue,
		intervalWait:     *intervalWait,
		retryAfter:       *retryAfter,
		historyWindow:    *historyWindow,
		historyWindows:   *historyWindows,
		pprof:            *pprofOn,
		fullTrace:        *tracePath != "",
	}
	if err := run(*addr, *fastAddr, cfg, *tracePath); err != nil {
		fmt.Fprintln(os.Stderr, "ckpt-served:", err)
		os.Exit(1)
	}
}

// serviceConfig is the wiring knob set newService consumes.
type serviceConfig struct {
	maxSchedules, maxFits           int
	intervalInflight, intervalQueue int
	intervalWait, retryAfter        time.Duration
	historyWindow                   time.Duration // 0 disables /metrics/history
	historyWindows                  int
	pprof                           bool
	fullTrace                       bool
}

// newService wires the observability stack and builds the server —
// split from run so the smoke test can start one without signals.
func newService(cfg serviceConfig) (*serve.Server, *obs.Tracer, *obs.History) {
	reg := obs.NewRegistry()
	fit.Instrument(reg)
	markov.Instrument(reg)
	tracer := obs.NewTracer(obs.TracerOptions{
		FullFidelity: cfg.fullTrace,
		Metrics:      reg,
	})
	var hist *obs.History
	if cfg.historyWindow > 0 {
		hist = obs.NewHistory(obs.HistoryOptions{
			Registry: reg,
			Window:   cfg.historyWindow.Seconds(),
			Capacity: cfg.historyWindows,
		})
		obs.NewRuntimeCollector(reg).Attach(hist)
	}

	maxSchedules, maxFits := cfg.maxSchedules, cfg.maxFits
	if maxSchedules == 0 {
		maxSchedules = -1 // serve: negative means unbounded
	}
	if maxFits == 0 {
		maxFits = -1
	}
	s := serve.New(serve.Options{
		Registry:     reg,
		Tracer:       tracer,
		History:      hist,
		Pprof:        cfg.pprof,
		MaxFits:      maxFits,
		MaxSchedules: maxSchedules,
		Interval: serve.RouteLimit{
			MaxInFlight: cfg.intervalInflight,
			MaxQueued:   cfg.intervalQueue,
			MaxWait:     cfg.intervalWait,
		},
		RetryAfter: cfg.retryAfter,
	})
	return s, tracer, hist
}

func run(addr, fastAddr string, cfg serviceConfig, tracePath string) error {
	s, tracer, hist := newService(cfg)
	stopScraper := hist.StartScraper()
	defer stopScraper()
	rn, err := s.Start(addr)
	if err != nil {
		return err
	}
	fmt.Printf("scheduling service on http://%s (API at /v1, metrics at /metrics); Ctrl-C to stop\n", rn.Addr())
	var fr *serve.FastRunning
	if fastAddr != "" {
		fr, err = s.StartFast(fastAddr)
		if err != nil {
			return err
		}
		fmt.Printf("interval fast path on http://%s\n", fr.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()

	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	err = rn.Shutdown(sctx)
	if err == nil && fr != nil {
		err = fr.Shutdown(sctx)
	}
	cancel()
	if err != nil {
		return err
	}
	if tracePath != "" {
		if err := tracer.WriteFile(tracePath); err != nil {
			return err
		}
	}
	fmt.Printf("drained: %d schedules resident\n", s.Schedules())
	return nil
}

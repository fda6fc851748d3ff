// Command ckpt-mgr runs the checkpoint manager: a TCP server that
// assigns availability models to connecting test processes, serves
// recovery images, receives checkpoints, and logs every session
// (§5.2 of the paper).
//
// Usage:
//
//	ckpt-mgr -addr 127.0.0.1:7419 -model hyperexp2 -params 0.6,0.4,0.01,0.0001 [-mb 500]
//	ckpt-mgr -addr :7419 -archive traces.csv -model weibull
//	ckpt-mgr -addr :7419 -archive traces.csv -model weibull -metrics 127.0.0.1:9090 -trace out.json
//
// With -metrics, the manager serves its live counters as a Prometheus
// text page at /metrics (see DESIGN.md §11 for the metric-name
// contract), their windowed history as JSON at /metrics/history, a
// liveness probe at /healthz, and the flight recorder's last-N trace
// events as Chrome-trace JSON at /debug/trace/snapshot. The HTTP
// server shuts down gracefully when the manager closes.
//
// With -trace, every session's timeline (transfers, retries, torn
// frames, heartbeats, chaos injections) is written to the file on
// shutdown as a Chrome trace (Perfetto-loadable); a .jsonl suffix
// selects the compact line format that ckpt-report timeline replays.
//
// With -archive, parameters are fitted per connecting job: the job ID
// is expected to be "<machine>/<n>" and the machine's recorded history
// is used (pooled history when the machine is unknown). The manager
// runs until interrupted, then prints per-session summaries.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	ckptsched "github.com/cycleharvest/ckptsched"
	"github.com/cycleharvest/ckptsched/internal/ckptnet"
	"github.com/cycleharvest/ckptsched/internal/core"
	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/imagestore"
	"github.com/cycleharvest/ckptsched/internal/obs"
	"github.com/cycleharvest/ckptsched/internal/trace"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7419", "listen address")
	model := flag.String("model", "weibull", "model family to assign")
	params := flag.String("params", "", "explicit comma-separated parameters (omit to fit from -archive)")
	archivePath := flag.String("archive", "", "trace CSV to fit per-machine parameters from")
	tracePath := flag.String("trace", "", "write an execution timeline to this file on shutdown (.json Chrome trace, .jsonl compact)")
	mb := flag.Float64("mb", 500, "checkpoint image size, MB")
	out := flag.String("out", "", "write session logs (JSON lines) here on shutdown")
	helloTO := flag.Duration("hello-timeout", 30*time.Second, "deadline for a new connection's first frame")
	idleTO := flag.Duration("idle-timeout", 5*time.Minute, "per-frame deadline for clients that announce no time scale")
	grace := flag.Float64("heartbeat-grace", 4, "per-frame deadline in heartbeat periods")
	faultDrop := flag.Float64("fault-drop", 0, "fault injection: per-frame drop probability")
	faultCorrupt := flag.Float64("fault-corrupt", 0, "fault injection: per-buffer corruption probability")
	faultReset := flag.Int64("fault-reset-bytes", 0, "fault injection: reset each armed connection after N bytes")
	faultEvery := flag.Int("fault-reset-every", 1, "fault injection: arm the reset on every Nth connection")
	faultSeed := flag.Int64("fault-seed", 1, "fault injection: deterministic seed")
	metricsAddr := flag.String("metrics", "", "serve Prometheus /metrics, /metrics/history, /healthz and /debug/trace/snapshot on this address (e.g. 127.0.0.1:9090)")
	historyWindow := flag.Duration("history-window", time.Second, "windowed-metrics scrape cadence for /metrics/history (0 disables; needs -metrics)")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the -metrics address")
	flag.Parse()

	opts := ckptnet.Options{
		HelloTimeout:   *helloTO,
		IdleTimeout:    *idleTO,
		HeartbeatGrace: *grace,
	}
	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		opts.Metrics = reg
		fit.Instrument(reg)
		imagestore.Instrument(reg)
	}
	// The flight recorder runs whenever anyone can see it: with -trace
	// (full-fidelity file sink) or with -metrics (ring snapshot at
	// /debug/trace/snapshot).
	if *tracePath != "" || *metricsAddr != "" {
		opts.Tracer = obs.NewTracer(obs.TracerOptions{
			FullFidelity: *tracePath != "",
			Metrics:      reg,
		})
	}
	var ms *metricsServer
	if *metricsAddr != "" {
		var hist *obs.History
		if *historyWindow > 0 {
			hist = obs.NewHistory(obs.HistoryOptions{
				Registry: reg,
				Window:   historyWindow.Seconds(),
			})
			obs.NewRuntimeCollector(reg).Attach(hist)
		}
		var err error
		ms, err = startMetricsServer(*metricsAddr, reg, opts.Tracer, hist, *pprofOn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ckpt-mgr: metrics listener:", err)
			os.Exit(1)
		}
		fmt.Printf("metrics on http://%s/metrics (windowed history at /metrics/history, liveness at /healthz, flight recorder at /debug/trace/snapshot)\n", ms.Addr())
	}
	if *faultDrop > 0 || *faultCorrupt > 0 || *faultReset > 0 {
		fi := ckptnet.NewFaultInjector(ckptnet.FaultConfig{
			Seed:            *faultSeed,
			DropProb:        *faultDrop,
			CorruptProb:     *faultCorrupt,
			ResetAfterBytes: *faultReset,
			ResetEvery:      *faultEvery,
			Tracer:          opts.Tracer,
		})
		opts.WrapConn = fi.Wrap
	}
	if err := run(*addr, *model, *params, *archivePath, *mb, *out, *tracePath, opts, ms); err != nil {
		fmt.Fprintln(os.Stderr, "ckpt-mgr:", err)
		os.Exit(1)
	}
}

// metricsServer is the optional observability HTTP server; it lives
// until Shutdown, which drains in-flight scrapes (and the history
// self-scraper) before returning.
type metricsServer struct {
	srv         *http.Server
	ln          net.Listener
	done        chan struct{}
	stopScraper func()
}

// startMetricsServer binds addr and serves obs.NewOpsMux — the route
// table ckpt-served shares. A history's wall-clock self-scraper starts
// here and stops with the server.
func startMetricsServer(addr string, reg *obs.Registry, tracer *obs.Tracer, hist *obs.History, pprofOn bool) (*metricsServer, error) {
	stopScraper := hist.StartScraper() // nil-safe: no history, no-op stop
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		stopScraper()
		return nil, err
	}
	ms := &metricsServer{
		srv:         &http.Server{Handler: obs.NewOpsMux(reg, tracer, hist, pprofOn)},
		ln:          ln,
		done:        make(chan struct{}),
		stopScraper: stopScraper,
	}
	go func() {
		defer close(ms.done)
		if err := ms.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "ckpt-mgr: metrics server:", err)
		}
	}()
	return ms, nil
}

// Addr is the bound listen address (useful with ":0").
func (ms *metricsServer) Addr() net.Addr { return ms.ln.Addr() }

// Shutdown gracefully stops the server: no new connections, in-flight
// requests drain until ctx expires, and the serve goroutine has exited
// by the time it returns.
func (ms *metricsServer) Shutdown(ctx context.Context) error {
	ms.stopScraper()
	err := ms.srv.Shutdown(ctx)
	<-ms.done
	return err
}

func run(addr, modelName, params, archivePath string, mb float64, out, traceOut string, opts ckptnet.Options, ms *metricsServer) error {
	m, err := ckptsched.ParseModel(modelName)
	if err != nil {
		return err
	}
	bytes := int64(mb * ckptnet.MB)

	var assigner ckptnet.Assigner
	switch {
	case params != "":
		vals, err := parseFloats(params)
		if err != nil {
			return err
		}
		if _, err := core.DistFromParams(m, vals); err != nil {
			return err
		}
		assigner = ckptnet.StaticAssigner(m, vals, bytes)
	case archivePath != "":
		set, err := trace.LoadCSV(archivePath)
		if err != nil {
			return err
		}
		var pooled []float64
		for _, name := range set.Machines() {
			pooled = append(pooled, set.Traces[name].Durations()...)
		}
		assigner = ckptnet.AssignerFunc(func(h ckptnet.Hello) (ckptnet.Assign, error) {
			data := pooled
			machine, _, _ := strings.Cut(h.JobID, "/")
			if tr, ok := set.Traces[machine]; ok && tr.Len() >= trace.DefaultTrainingSize {
				data = tr.Durations()
			}
			d, err := fit.Fit(m, data)
			if err != nil {
				return ckptnet.Assign{}, err
			}
			_, fitted, err := core.ParamsOf(d)
			if err != nil {
				return ckptnet.Assign{}, err
			}
			return ckptnet.Assign{Model: m, Params: fitted, CheckpointBytes: bytes, HeartbeatSec: 10}, nil
		})
	default:
		return fmt.Errorf("need -params or -archive")
	}

	mgr, err := ckptnet.NewManagerOpts(assigner, opts)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	bound, err := mgr.ListenContext(ctx, addr)
	if err != nil {
		return err
	}
	fmt.Printf("checkpoint manager listening on %s (model %v, %g MB images); Ctrl-C to stop\n", bound, m, mb)

	// The signal cancels ctx, which closes the manager; Close here both
	// handles the non-signal path and waits for sessions to drain.
	<-ctx.Done()
	if err := mgr.Close(); err != nil {
		return err
	}
	if ms != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := ms.Shutdown(sctx)
		cancel()
		if err != nil {
			return err
		}
	}
	if err := opts.Tracer.WriteFile(traceOut); err != nil {
		return err
	}

	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if err := ckptnet.WriteSessions(f, mgr.Sessions()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d session logs to %s (post-process with ckpt-report)\n", len(mgr.Sessions()), out)
	}

	fmt.Printf("\n%d sessions:\n", len(mgr.Sessions()))
	for _, s := range mgr.Sessions() {
		sum := s.Summarize()
		fmt.Printf("  %-24s model=%-10v recoveries=%d checkpoints=%d interrupted=%d heartbeats=%d bytes=%d retries=%d torn=%d fallbacks=%d\n",
			s.JobID, s.Model, sum.Recoveries, sum.Checkpoints, sum.Interrupted, sum.Heartbeats, sum.BytesMoved,
			sum.Retries, sum.TornFrames, sum.Fallbacks)
	}
	return nil
}

func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		if _, err := fmt.Sscanf(strings.TrimSpace(p), "%g", &out[i]); err != nil {
			return nil, fmt.Errorf("bad parameter %q: %w", p, err)
		}
	}
	return out, nil
}

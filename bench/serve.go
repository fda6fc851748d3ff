package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/cycleharvest/ckptsched/internal/dist"
	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/markov"
	"github.com/cycleharvest/ckptsched/internal/obs"
	"github.com/cycleharvest/ckptsched/internal/serve"
	"github.com/cycleharvest/ckptsched/internal/stats"
)

// The serve path's fixed inputs: the paper's campus checkpoint cost and
// its pooled Weibull availability law.
const (
	serveC       = 110.0   // seconds
	weibullShape = 0.43    // Weibull(0.43, 3409): the paper's fitted pool law
	weibullScale = 3409.0  // seconds
	lookupSpan   = 86400.0 // pre-installed schedules plan one day ahead
	openLoopRate = 50000.0 // req/s offered in the open-loop phase
	loopSegments = 8       // equal in-run segments behind every serve median
	openSegments = 128     // the open-loop run is cut finer
	bgReaderRate = 10000.0 // req/s read beside the installs
)

var installModels = []string{"exp", "weibull", "hyperexp2", "hyperexp3"}

// serveEnv is a booted scheduling service with its key space installed,
// plus the inputs the two serve phases replay against it.
type serveEnv struct {
	srv         *serve.Server
	main        *serve.Running
	fast        *serve.FastRunning
	stopScraper func()

	oracle    []*markov.Schedule // what the server holds for key i
	pool      *lookupPool
	histories [][]float64 // one availability history per install
	installs  [][]byte    // POST /v1/schedule bodies: fresh keys, model round-robin
}

// newServeEnv boots the service the way cmd/ckpt-served wires it
// (registry, tracer, windowed history with its scraper, fit and markov
// instrumented) unless bare is set, installs w.keys schedules from
// explicit parameters, and renders the phases' inputs from seed.
func newServeEnv(w *workload, sc *scale, seed int64, bare bool) (*serveEnv, error) {
	env := &serveEnv{stopScraper: func() {}}
	var opts serve.Options
	if !bare {
		reg := obs.NewRegistry()
		fit.Instrument(reg)
		markov.Instrument(reg)
		hist := obs.NewHistory(obs.HistoryOptions{Registry: reg, Window: 1, Capacity: 512})
		obs.NewRuntimeCollector(reg).Attach(hist)
		opts = serve.Options{
			Registry: reg,
			Tracer:   obs.NewTracer(obs.TracerOptions{Metrics: reg}),
			History:  hist,
		}
		env.stopScraper = hist.StartScraper()
	}
	env.srv = serve.New(opts)
	var err error
	if env.main, err = env.srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	if env.fast, err = env.srv.StartFast("127.0.0.1:0"); err != nil {
		env.close()
		return nil, err
	}

	// Key space: even keys exponential with a per-key rate, odd keys the
	// pooled Weibull law, so half the keys hold multi-interval schedules.
	rng := rand.New(rand.NewSource(seed))
	costs, _ := markov.NewCosts(serveC, -1, -1)
	env.oracle = make([]*markov.Schedule, w.keys)
	bodies := make([][]byte, w.keys)
	wb := markov.Model{Avail: dist.NewWeibull(weibullShape, weibullScale), Costs: costs}
	wbSched, err := wb.BuildSchedule(0, markov.ScheduleOptions{Horizon: lookupSpan})
	if err != nil {
		env.close()
		return nil, err
	}
	for k := range env.oracle {
		if k%2 == 1 {
			env.oracle[k] = wbSched
			bodies[k] = []byte(fmt.Sprintf(`{"key":%q,"model":"weibull","params":[%g,%g],"c":%g,"horizon":%g}`,
				keyName(k), weibullShape, weibullScale, serveC, lookupSpan))
			continue
		}
		lambda := 1 / (1800 + 5400*rng.Float64())
		lambdaText := strconv.FormatFloat(lambda, 'g', -1, 64)
		m := markov.Model{Avail: dist.NewExponential(lambda), Costs: costs}
		if env.oracle[k], err = m.BuildSchedule(0, markov.ScheduleOptions{Horizon: lookupSpan}); err != nil {
			env.close()
			return nil, err
		}
		bodies[k] = []byte(fmt.Sprintf(`{"key":%q,"model":"exp","params":[%s],"c":%g,"horizon":%g}`,
			keyName(k), lambdaText, serveC, lookupSpan))
	}
	if err := env.postAll(bodies); err != nil {
		env.close()
		return nil, err
	}

	env.pool = newLookupPool(rng, lookupSpec{
		n:        1 << 16,
		zipf:     w.zipf,
		coldFrac: w.coldFrac,
		horizon:  lookupSpan,
		beyond:   0.01,
	}, env.oracle)

	// Install bodies: histories drawn from the pooled Weibull law.
	law := dist.NewWeibull(weibullShape, weibullScale)
	env.histories = make([][]float64, sc.installs)
	env.installs = make([][]byte, sc.installs)
	for i := range env.installs {
		h := make([]float64, w.histLen)
		var b bytes.Buffer
		fmt.Fprintf(&b, `{"key":"fresh%d","model":%q,"c":%g,"data":[`, i, installModels[i%len(installModels)], serveC)
		for j := range h {
			h[j] = law.Rand(rng)
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(h[j], 'g', -1, 64))
		}
		env.histories[i] = h
		b.WriteString("]}")
		env.installs[i] = b.Bytes()
	}
	return env, nil
}

// postAll installs the pre-built key space over nproc keep-alive
// connections.
func (env *serveEnv) postAll(bodies [][]byte) error {
	workers := runtime.NumCPU()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			defer client.CloseIdleConnections()
			for i := wk; i < len(bodies); i += workers {
				if _, err := postSchedule(client, env.main.Addr(), bodies[i]); err != nil {
					errs[wk] = err
					return
				}
			}
		}(wk)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// scheduleAnswer is the part of the POST /v1/schedule response the
// harness checks.
type scheduleAnswer struct {
	Intervals int  `json:"intervals"`
	Cached    bool `json:"cached"`
}

// postSchedule posts one schedule request and decodes the answer; any
// status but 200 is an error.
func postSchedule(client *http.Client, addr net.Addr, body []byte) (scheduleAnswer, error) {
	var ans scheduleAnswer
	resp, err := client.Post("http://"+addr.String()+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		return ans, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if err != nil {
		return ans, err
	}
	if resp.StatusCode != http.StatusOK {
		return ans, fmt.Errorf("POST /v1/schedule: %d %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return ans, json.Unmarshal(raw, &ans)
}

func (env *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if env.fast != nil {
		env.fast.Shutdown(ctx)
	}
	if env.main != nil {
		env.main.Shutdown(ctx)
	}
	env.stopScraper()
	fit.Instrument(nil)
	markov.Instrument(nil)
}

// lookupFigures is what one serve_lookup pass measured.
type lookupFigures struct {
	rps      float64 // closed loop, fast listener, median segment
	p50, p99 float64 // open loop at openLoopRate, µs from due time, median segment
	lateP99  float64 // generator lateness, µs
	counts   loadCounts
}

// runLookup is the serve_lookup phase: phase A closed loop (nproc
// connections × depth 32) and phase B open loop at a fixed 50 000
// req/s, both on the fast listener — the fastest the server offers for
// the interval route.
func runLookup(env *serveEnv, sc *scale, rec *recorder) (lookupFigures, error) {
	var f lookupFigures
	addr := env.fast.Addr().String()
	sp := rec.start("serve_lookup.closed_loop")
	rps, counts, err := closedLoop(addr, env.pool, runtime.NumCPU(), 32, sc.warm, sc.closedSeg, loopSegments)
	sp.end()
	if err != nil {
		return f, err
	}
	f.rps = stats.Median(rps)
	f.counts = counts

	sp = rec.start("serve_lookup.open_loop")
	res, err := openLoop(openLoopSpec{
		addr: addr, pool: env.pool, conns: runtime.NumCPU(), rate: openLoopRate,
		warm: sc.warm, measure: loopSegments * sc.openSeg,
	})
	sp.end()
	if err != nil {
		return f, err
	}
	f.counts.add(res.counts)
	f.p50 = stats.Median(segmentQuantiles(res.latencyUs, openSegments, 0.50))
	f.p99 = stats.Median(segmentQuantiles(res.latencyUs, openSegments, 0.99))
	f.lateP99 = quantile(res.lateUs, 0.99)
	return f, nil
}

// installFigures is what one serve_install pass measured.
type installFigures struct {
	perSec    float64            // installs per second, median of equal segments
	p99ms     float64            // over every install of the pass
	byModelMs map[string]float64 // median latency per model family
	readerP99 float64            // µs, the concurrent fixed-rate reader
	counts    loadCounts
}

// runInstall is the serve_install phase: one caller posts fresh keys
// with full histories (fit → build → store) and waits for each answer,
// while a second connection reads installed keys at a fixed 10k req/s.
func runInstall(env *serveEnv, rec *recorder) (installFigures, error) {
	f := installFigures{byModelMs: map[string]float64{}}
	stop := make(chan struct{})
	var bg *openLoopResult
	var bgErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		bg, bgErr = openLoop(openLoopSpec{
			addr: env.fast.Addr().String(), pool: env.pool, conns: 1, rate: bgReaderRate,
			stop: stop, tick: time.Millisecond,
		})
	}()

	sp := rec.start("serve_install.post")
	client := &http.Client{Timeout: 30 * time.Second}
	lat := make([]float64, len(env.installs))
	byModel := map[string][]float64{}
	var firstErr error
	for i, body := range env.installs {
		t0 := time.Now()
		ans, err := postSchedule(client, env.main.Addr(), body)
		lat[i] = time.Since(t0).Seconds() * 1e3
		f.counts.attempted++
		if err != nil || ans.Intervals <= 0 || ans.Cached {
			f.counts.failed++
			if firstErr == nil && err != nil {
				firstErr = err
			}
		}
		m := installModels[i%len(installModels)]
		byModel[m] = append(byModel[m], lat[i])
	}
	client.CloseIdleConnections()
	sp.end()
	close(stop)
	wg.Wait()
	if firstErr != nil {
		return f, firstErr
	}
	if bgErr != nil {
		return f, bgErr
	}

	// Installs per second over equal consecutive segments: the segment's
	// count over the sum of its latencies (the caller is always waiting).
	segs := loopSegments
	if len(lat) < segs {
		segs = 1
	}
	per := len(lat) / segs
	rates := make([]float64, segs)
	for s := range rates {
		sum := 0.0
		for _, l := range lat[s*per : (s+1)*per] {
			sum += l
		}
		rates[s] = float64(per) / (sum / 1e3)
	}
	f.perSec = stats.Median(rates)
	f.p99ms = quantile(lat, 0.99)
	for m, ls := range byModel {
		f.byModelMs[m] = stats.Median(ls)
	}
	f.readerP99 = quantile(bg.latencyUs, 0.99)
	f.counts.add(bg.counts)
	return f, nil
}

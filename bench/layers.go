package main

import (
	"bytes"
	"hash/crc32"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"github.com/cycleharvest/ckptsched/internal/ckptnet"
	"github.com/cycleharvest/ckptsched/internal/condor"
	"github.com/cycleharvest/ckptsched/internal/dist"
	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/imagestore"
	"github.com/cycleharvest/ckptsched/internal/live"
	"github.com/cycleharvest/ckptsched/internal/markov"
	"github.com/cycleharvest/ckptsched/internal/obs"
	"github.com/cycleharvest/ckptsched/internal/parallel"
	"github.com/cycleharvest/ckptsched/internal/sim"
	"github.com/cycleharvest/ckptsched/internal/stats"
	"github.com/cycleharvest/ckptsched/internal/trace"
)

// The probes below time one layer at a time, from outside, through its
// public functions, on the inputs the workload generated. They run only
// in the traced run, after the two passes, each under a "replay.*"
// span. Every figure is a median over probeSegments equal segments (or
// that many single calls when one call is long enough to time).
const probeSegments = 8

// perCall times segs segments of n calls each and returns the median
// seconds per call.
func perCall(segs, n int, fn func(i int)) float64 {
	per := make([]float64, segs)
	i := 0
	for s := range per {
		t0 := time.Now()
		for j := 0; j < n; j++ {
			fn(i)
			i++
		}
		per[s] = time.Since(t0).Seconds() / float64(n)
	}
	return stats.Median(per)
}

// mallocs returns the heap allocations fn makes.
func mallocs(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// layerSet collects the per-layer metrics of one traced run.
type layerSet map[string]metric

func (l layerSet) set(name string, v float64, unit string) { l[name] = metric{v, unit} }

// discardWriter is the http.ResponseWriter the handler probe writes to.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(int)             {}

// serveProbe is what the serve probes hand to the budget tables.
type serveProbe struct {
	lookupNs, handlerNs float64
	fitMs, buildMs      map[string]float64
}

// probeServe replays the serve phases' inputs through serve, fit and
// markov in isolation.
func probeServe(env *serveEnv, sc *scale, rec *recorder, out layerSet) (serveProbe, loadCounts, error) {
	var p serveProbe
	var counts loadCounts
	pool := env.pool
	n := len(pool.reqs)

	// markov: the lookup itself, on the lookup stream's keys and ages.
	sp := rec.start("replay.markov.lookup")
	hints := make([]int, len(env.oracle))
	var sinkT float64
	p.lookupNs = 1e9 * perCall(probeSegments, 1<<16, func(i int) {
		k := pool.keys[i%n]
		if k < 0 {
			return
		}
		T, idx, _, _ := env.oracle[k].LookupFrom(pool.ages[i%n], hints[k])
		hints[k] = idx
		sinkT += T
	})
	sp.end()
	out.set("markov.lookup_ns", p.lookupNs, "ns")

	// serve: the handler on the same stream, no socket.
	sp = rec.start("replay.serve.handler")
	const handlerReqs = 4096
	reqs := make([]*http.Request, handlerReqs)
	for i := range reqs {
		line := pool.reqs[i]
		target := string(line[len("GET ") : bytes.IndexByte(line, '\r')-len(" HTTP/1.1")])
		r, err := http.NewRequest(http.MethodGet, "http://bench"+target, nil)
		if err != nil {
			return p, counts, err
		}
		reqs[i] = r
	}
	dw := &discardWriter{h: http.Header{}}
	serveOne := func(i int) { env.srv.ServeHTTP(dw, reqs[i%handlerReqs]) }
	p.handlerNs = 1e9 * perCall(probeSegments, 1<<15, serveOne)
	allocs := mallocs(func() {
		for i := 0; i < handlerReqs; i++ {
			serveOne(i)
		}
	}) / handlerReqs
	sp.end()
	out.set("serve.handler_ns", p.handlerNs, "ns")
	out.set("serve.handler_allocs", allocs, "count")

	// serve: the net/http listener, closed loop like phase A.
	sp = rec.start("replay.serve.http_listener")
	rps, c, err := closedLoop(env.main.Addr().String(), pool, runtime.NumCPU(), 32, sc.warm, sc.closedSeg/2, loopSegments)
	sp.end()
	if err != nil {
		return p, counts, err
	}
	counts.add(c)
	out.set("serve.http_rps", stats.Median(rps), "req/s")

	// serve: the open-loop rate ladder against the route's own SLO.
	sp = rec.start("replay.serve.rate_ladder")
	best, shedTop := 0.0, 0.0
	for _, rate := range []float64{25e3, 50e3, 100e3, 200e3, 400e3} {
		res, err := openLoop(openLoopSpec{
			addr: env.fast.Addr().String(), pool: pool, conns: runtime.NumCPU(), rate: rate,
			warm: sc.warm, measure: 2 * sc.openSeg,
		})
		if err != nil {
			return p, counts, err
		}
		// Past saturation the server sheds; that is the answer the ladder
		// is looking for, not a failed operation.
		counts.attempted += res.counts.attempted
		counts.failed += res.counts.failed - res.counts.shed
		held := quantile(res.latencyUs, 0.99) <= 10e3 && res.counts.shed == 0 && res.achieved >= 0.98*rate
		if held {
			best = rate
		}
		shedTop = float64(res.counts.shed) / float64(max(res.counts.attempted, 1))
	}
	sp.end()
	out.set("serve.rate_at_slo", best, "req/s")
	out.set("serve.shed_ratio", shedTop, "ratio")

	// serve: a re-POST of a resident key (installed here first).
	sp = rec.start("replay.serve.install_cached")
	client := &http.Client{Timeout: 30 * time.Second}
	resident := env.installs[:min(16, len(env.installs))]
	post := func(body []byte, wantCached bool) {
		ans, err := postSchedule(client, env.main.Addr(), body)
		counts.attempted++
		if err != nil || ans.Cached != wantCached {
			counts.failed++
		}
	}
	for _, body := range resident {
		post(body, false)
	}
	cachedS := perCall(probeSegments, 16, func(i int) { post(resident[i%len(resident)], true) })
	client.CloseIdleConnections()
	sp.end()
	out.set("serve.install_cached_us", cachedS*1e6, "us")

	// fit and markov: the install pipeline's two stages on the install
	// histories, with the layers' own counters on a bench-owned registry.
	reg := obs.NewRegistry()
	fit.Instrument(reg)
	markov.Instrument(reg)
	defer fit.Instrument(nil)
	defer markov.Instrument(nil)
	counter := func(name string) float64 { return float64(reg.Snapshot().Counters[name]) }
	costs, _ := markov.NewCosts(serveC, -1, -1)
	p.fitMs, p.buildMs = map[string]float64{}, map[string]float64{}
	var weibull dist.Distribution
	for mi, name := range installModels {
		model, err := fit.ParseModel(name)
		if err != nil {
			return p, counts, err
		}
		var fitted dist.Distribution
		sp = rec.start("replay.fit." + name)
		iters0, fits0 := counter("fit_em_iterations_total"), counter("fit_em_fits_total")
		p.fitMs[name] = 1e3 * perCall(probeSegments, 1, func(i int) {
			h := env.histories[(mi+i*len(installModels))%len(env.histories)]
			d, err := fit.Fit(model, h)
			if err != nil {
				counts.failed++
			}
			fitted = d
			counts.attempted++
		})
		sp.end()
		out.set("fit.ms."+name, p.fitMs[name], "ms")
		if name == "hyperexp3" {
			out.set("fit.em_iterations.hyperexp3",
				(counter("fit_em_iterations_total")-iters0)/max(counter("fit_em_fits_total")-fits0, 1), "count")
		}
		if fitted == nil {
			continue
		}
		if name == "weibull" {
			weibull = fitted
		}
		m := markov.Model{Avail: fitted, Costs: costs}
		sp = rec.start("replay.markov.build." + name)
		evals0 := counter("markov_golden_evals_total")
		p.buildMs[name] = 1e3 * perCall(probeSegments, 1, func(int) {
			if _, err := m.BuildSchedule(0, markov.ScheduleOptions{}); err != nil {
				counts.failed++
			}
			counts.attempted++
		})
		sp.end()
		out.set("markov.build_ms."+name, p.buildMs[name], "ms")
		if name == "weibull" {
			out.set("markov.objective_evals", (counter("markov_golden_evals_total")-evals0)/probeSegments, "count")
		}
	}
	if weibull != nil {
		m := markov.Model{Avail: weibull, Costs: costs}
		sp = rec.start("replay.markov.topt")
		out.set("markov.topt_us.weibull", 1e6*perCall(probeSegments, 8, func(i int) {
			m.Topt(float64(i%64)*600, markov.OptimizeOptions{})
		}), "us")
		var sinkG float64
		out.set("markov.gamma_ns.weibull", 1e9*perCall(probeSegments, 4096, func(i int) {
			sinkG += m.Gamma(600+float64(i%64)*60, float64(i%64)*600)
		}), "ns")
		sp.end()
	}

	sp = rec.start("replay.fit.cache_hit")
	cache := fit.NewCache()
	cache.Fit("bench", fit.ModelWeibull, env.histories[0])
	out.set("fit.cache_hit_ns", 1e9*perCall(probeSegments, 1<<16, func(int) {
		cache.Fit("bench", fit.ModelWeibull, env.histories[0])
	}), "ns")
	sp.end()
	return p, counts, nil
}

// probeObs measures what the observability stack costs the lookup hot
// path: phase A against the wired server and against a bare one.
func probeObs(env *serveEnv, w *workload, sc *scale, seed int64, rec *recorder, out layerSet) (loadCounts, error) {
	var counts loadCounts
	sp := rec.start("replay.obs.on_vs_off")
	defer sp.end()
	bareScale := *sc
	bareScale.installs = 1
	bare, err := newServeEnv(w, &bareScale, seed, true)
	if err != nil {
		return counts, err
	}
	defer bare.close()
	run := func(e *serveEnv) (float64, error) {
		rps, c, err := closedLoop(e.fast.Addr().String(), e.pool, runtime.NumCPU(), 32, sc.warm, sc.closedSeg/2, loopSegments)
		counts.add(c)
		return stats.Median(rps), err
	}
	on, err := run(env)
	if err != nil {
		return counts, err
	}
	off, err := run(bare)
	if err != nil {
		return counts, err
	}
	out.set("obs.on_overhead_pct", 100*(off-on)/off, "%")
	return counts, nil
}

// transferProbe is the checkpoint chain's isolated step times, ms.
type transferProbe struct {
	encodeMs, crcMs, frameMs, streamMs, applyMs, commitBaseMs float64
}

// probeTransfer replays one checkpoint's steps through imagestore and
// ckptnet in isolation, on an image mutated the way the workload's
// client mutates it.
func probeTransfer(w *workload, seed int64, rec *recorder, out layerSet) (transferProbe, loadCounts, error) {
	var p transferProbe
	var counts loadCounts
	mb := float64(w.imageBytes) / 1e6
	img := imagestore.NewImage(w.imageBytes, imageChunk, seed)
	store := imagestore.NewStore()
	const job = "probe"

	sp := rec.start("replay.imagestore.manifest")
	out.set("imagestore.manifest_MBps", mb/perCall(probeSegments, 1, func(int) {
		imagestore.BuildManifest(img.Bytes(), imageChunk)
	}), "MB/s")
	sp.end()

	sp = rec.start("replay.imagestore.commit_full")
	var gen int
	out.set("imagestore.commit_full_ms", 1e3*perCall(probeSegments, 1, func(int) {
		gen, _, _ = store.CommitFull(job, img.Bytes(), imageChunk)
	}), "ms")
	sp.end()
	img.CommitBase(gen)

	// One checkpoint per segment: mutate, encode, checksum, frame,
	// apply, commit the base — the client's and the manager's steps in
	// the order the wire imposes.
	var mutate, encode, crc, frame, apply, commitBase []float64
	var begin ckptnet.DataBegin
	var payload []byte
	var frameBuf bytes.Buffer
	for s := 0; s < probeSegments; s++ {
		t0 := time.Now()
		img.MutateFraction(w.dirtyFrac)
		mutate = append(mutate, time.Since(t0).Seconds())

		t0 = time.Now()
		var d imagestore.Delta
		d, payload = img.EncodeDelta()
		encode = append(encode, time.Since(t0).Seconds())

		t0 = time.Now()
		sum := crc32.ChecksumIEEE(payload)
		crc = append(crc, time.Since(t0).Seconds())

		begin = ckptnet.DataBegin{
			Bytes: int64(len(payload)), CRC32: sum, Mode: ckptnet.ModeDelta, RawBytes: int64(len(payload)),
			ChunkSize: imageChunk, ImageBytes: w.imageBytes, BaseGen: d.BaseGen, Dirty: d.Dirty, Sums: d.Sums,
		}
		t0 = time.Now()
		frameBuf.Reset()
		var back ckptnet.DataBegin
		err := ckptnet.WriteFrame(&frameBuf, ckptnet.MsgCheckpointBegin, begin)
		if err == nil {
			_, err = ckptnet.ReadFrame(&frameBuf, &back)
		}
		frame = append(frame, time.Since(t0).Seconds())
		counts.attempted++
		if err != nil || len(back.Dirty) != len(d.Dirty) {
			counts.failed++
		}

		t0 = time.Now()
		g, _, err := store.ApplyDelta(job, d, payload)
		apply = append(apply, time.Since(t0).Seconds())
		counts.attempted++
		if err != nil {
			counts.failed++
			continue
		}
		t0 = time.Now()
		img.CommitBase(g)
		commitBase = append(commitBase, time.Since(t0).Seconds())
	}
	p.encodeMs, p.crcMs, p.frameMs = 1e3*stats.Median(encode), 1e3*stats.Median(crc), 1e3*stats.Median(frame)
	p.applyMs, p.commitBaseMs = 1e3*stats.Median(apply), 1e3*stats.Median(commitBase)
	out.set("imagestore.mutate_ms", 1e3*stats.Median(mutate), "ms")
	out.set("imagestore.encode_delta_ms", p.encodeMs, "ms")
	out.set("imagestore.apply_delta_ms", p.applyMs, "ms")
	out.set("ckptnet.frame_rt_us", 1e3*p.frameMs, "us")

	sp = rec.start("replay.imagestore.lookup")
	out.set("imagestore.lookup_ms", 1e3*perCall(probeSegments, 1024, func(int) { store.Lookup(job) }), "ms")
	sp.end()

	// DEFLATE on a payload that is half image content, half zeros, so
	// there is something to win (the synthetic image is incompressible).
	sp = rec.start("replay.imagestore.deflate")
	half := append([]byte(nil), img.Bytes()[:min(len(img.Bytes()), 4<<20)]...)
	clear(half[len(half)/2:])
	var packed []byte
	packS := perCall(probeSegments, 1, func(int) { packed, _ = imagestore.Compress(half) })
	out.set("imagestore.compress_MBps", float64(len(half))/1e6/packS, "MB/s")
	out.set("imagestore.decompress_MBps", float64(len(half))/1e6/perCall(probeSegments, 1, func(int) {
		counts.attempted++
		if _, err := imagestore.Decompress(packed, int64(len(half))); err != nil {
			counts.failed++
		}
	}), "MB/s")
	sp.end()

	// ckptnet: the data stream from memory (CRC and copy only), then
	// over a loopback socket, for the whole image and for this
	// workload's wire payload.
	sp = rec.start("replay.ckptnet.readbuf")
	out.set("ckptnet.readbuf_MBps", mb/perCall(probeSegments, 1, func(int) {
		ckptnet.ReadDataBuf(bytes.NewReader(img.Bytes()), w.imageBytes)
	}), "MB/s")
	sp.end()
	sp = rec.start("replay.ckptnet.stream")
	whole, err := streamSeconds(img.Bytes())
	if err == nil {
		var wire float64
		wire, err = streamSeconds(payload)
		p.streamMs = 1e3 * wire
	}
	sp.end()
	if err != nil {
		return p, counts, err
	}
	out.set("ckptnet.stream_MBps", mb/whole, "MB/s")
	return p, counts, nil
}

// streamSeconds sends data with WriteRawData over a loopback TCP socket
// to a ReadDataBuf on the other end, probeSegments times, and returns
// the median wall time from first write to last byte verified.
func streamSeconds(data []byte) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	var wg sync.WaitGroup
	var srvErr error
	doneRead := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			srvErr = err
			close(doneRead)
			return
		}
		defer conn.Close()
		for s := 0; s < probeSegments; s++ {
			if _, _, _, err := ckptnet.ReadDataBuf(conn, int64(len(data))); err != nil {
				srvErr = err
				break
			}
			// One byte back marks "read and checksummed".
			if _, err := conn.Write([]byte{1}); err != nil {
				srvErr = err
				break
			}
		}
		close(doneRead)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	var times []float64
	ack := make([]byte, 1)
	for s := 0; s < probeSegments; s++ {
		t0 := time.Now()
		if err := ckptnet.WriteRawData(conn, data); err != nil {
			return 0, err
		}
		if _, err := conn.Read(ack); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	<-doneRead
	wg.Wait()
	return stats.Median(times), srvErr
}

// probeCampaign times the campaign's building blocks one at a time:
// pool synthesis with trace collection, the trace CSV codec, the
// trace-driven simulator and the live campaign.
func probeCampaign(w *workload, rec *recorder, out layerSet) (loadCounts, error) {
	var counts loadCounts
	sp := rec.start("replay.condor.pool_synth")
	t0 := time.Now()
	machines, err := condor.SyntheticPool(condor.SyntheticPoolConfig{Machines: w.machines, Seed: campaignSeed})
	if err != nil {
		return counts, err
	}
	pool, err := condor.NewPool(machines, campaignSeed)
	if err != nil {
		return counts, err
	}
	history, err := condor.CollectTraces(pool, condor.MonitorConfig{
		Monitors: w.machines, Duration: condor.MonthsSeconds(w.months),
	})
	sp.end()
	if err != nil {
		return counts, err
	}
	out.set("condor.pool_synth_ms", 1e3*time.Since(t0).Seconds(), "ms")

	sp = rec.start("replay.trace.csv")
	var csv bytes.Buffer
	csvS := perCall(probeSegments, 1, func(int) {
		csv.Reset()
		err := trace.WriteCSV(&csv, history)
		if err == nil {
			_, err = trace.ReadCSV(bytes.NewReader(csv.Bytes()))
		}
		counts.attempted++
		if err != nil {
			counts.failed++
		}
	})
	sp.end()
	out.set("trace.csv_rt_MBps", float64(csv.Len())/1e6/csvS, "MB/s")

	sp = rec.start("replay.sim.run")
	var periods []float64
	for _, tr := range history.WithAtLeast(60) {
		periods = append(periods, tr.Durations()...)
	}
	costs, _ := markov.NewCosts(serveC, -1, -1)
	simS := perCall(probeSegments, 1, func(int) {
		res, err := sim.Run(periods, sim.FixedInterval(1800), sim.Config{Costs: costs, CheckpointMB: 500})
		counts.attempted++
		if err != nil || res.Commits <= 0 {
			counts.failed++
		}
	})
	sp.end()
	out.set("sim.ns_per_period", 1e9*simS/float64(max(len(periods), 1)), "ns")

	sp = rec.start("replay.live.campaign")
	t0 = time.Now()
	camp, err := live.RunCampaign(live.CampaignConfig{
		Machines: machines, History: history, Link: ckptnet.CampusLink(),
		CheckpointMB: 500, SamplesPerModel: w.samples, Concurrency: 1, Seed: campaignSeed + 4,
	})
	sp.end()
	if err != nil {
		return counts, err
	}
	counts.attempted++
	if len(camp.Samples) != w.samples*len(fit.Models) {
		counts.failed++
	}
	out.set("live.samples_per_s", float64(len(camp.Samples))/time.Since(t0).Seconds(), "1/s")
	return counts, nil
}

// probeFleet times the engine at two more sizes and counts its
// allocations.
func probeFleet(w *workload, seed int64, rec *recorder, out layerSet) (loadCounts, error) {
	var counts loadCounts
	run := func(workers int, hours float64) (float64, error) {
		t0 := time.Now()
		res, err := parallel.Run(fleetConfig(workers, hours, parallel.StaggerNone, seed))
		counts.attempted++
		if err != nil || res.Commits <= 0 {
			counts.failed++
		}
		return time.Since(t0).Seconds(), err
	}
	sp := rec.start("replay.parallel.w1024")
	var err error
	w1024 := perCall(probeSegments, 1, func(int) {
		if _, e := run(1024, fleetHours); e != nil {
			err = e
		}
	})
	sp.end()
	if err != nil {
		return counts, err
	}
	out.set("parallel.w1024_ms", 1e3*w1024, "ms")

	sp = rec.start("replay.parallel.allocs")
	out.set("parallel.allocs_per_run", mallocs(func() { run(w.workers, fleetHours) }), "count")
	sp.end()

	// The million-worker hour, one shot.
	sp = rec.start("replay.parallel.w1M_1h")
	s, err := run(w.herd, 1)
	sp.end()
	out.set("parallel.w1M_1h_s", s, "s")
	return counts, err
}

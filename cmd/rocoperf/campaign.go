package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/rocosim/roco"
	"github.com/rocosim/roco/internal/campaign"
)

// campaignWorkload is one client submitting a closed batch of jobs at once
// to a fresh in-process campaign.Manager and waiting for all of them.
type campaignWorkload struct {
	o     options
	jobs  []roco.Config
	every int64 // snapshot cadence in cycles
	// refCycles is the prefix of jobs[0] rerun on the reference kernel,
	// and the cycle at which the traced run checkpoints it.
	refCycles int64

	// From the kept batch: each job's result JSON and decoded
	// Result, and the digest of its newest snapshot file.
	raw     [][]byte
	results []roco.Result
	snaps   []string

	batches int // batches run so far, naming their data directories

	// From the traced batches.
	jobsPerS, queueS, runS []float64
	progress, failed       int
}

// newCampaign builds the batch: 2x2 chiplets of 4x4 RoCo nodes joined by
// serial die-to-die links, reliable delivery, and three critical faults
// per job at fixed cycles. The seed places the faults and drives the
// traffic; the fault count is fixed so that seeds differ in where the
// network breaks, not in how much of it does.
func newCampaign(o options) *campaignWorkload {
	n, warmup, measure, every := 16, int64(1000), int64(10000), int64(1024)
	if o.smoke {
		n, warmup, measure, every = 4, 100, 400, 256
	}
	w := &campaignWorkload{o: o, every: every, refCycles: 2 * every}
	for i := 0; i < n; i++ {
		seed := derive(o.seed, i)
		var faults []roco.TimedFault
		for k, f := range roco.RandomFaults(roco.CriticalFaults, 3, 8, 8, seed) {
			faults = append(faults, roco.TimedFault{Cycle: int64(k+1) * 2 * every, Fault: f})
		}
		w.jobs = append(w.jobs, roco.Config{
			ChipsX: 2, ChipsY: 2, ChipW: 4, ChipH: 4, D2DClass: roco.D2DSerial,
			Router: roco.RoCo, Algorithm: roco.XY, Traffic: roco.Uniform,
			// Well below the serial seams' saturation point: above it,
			// latencies outgrow the latency histogram and P99Latency
			// becomes +Inf, which result JSON cannot encode.
			InjectionRate: 0.06, FlitsPerPacket: 4,
			WarmupPackets: warmup, MeasurePackets: measure,
			Seed:           seed,
			Reliable:       true,
			FaultSchedule:  faults,
			TelemetryEvery: every / 4,
		})
	}
	return w
}

func (w *campaignWorkload) unit(keep bool, tr *tracer) unitStats {
	st := unitStats{ops: len(w.jobs)}
	w.batches++
	u := w.batches
	dir := filepath.Join(w.o.dataDir, fmt.Sprintf("campaign-%d-%d", os.Getpid(), u))
	defer os.RemoveAll(dir)
	failAll := func(err error) unitStats {
		st.failed = st.ops
		st.problems = append(st.problems, fmt.Sprintf("batch %d: %v", u, err))
		return st
	}
	if err := os.RemoveAll(dir); err != nil {
		return failAll(err)
	}

	parent := 0
	if tr != nil {
		parent = tr.open("batch", 0)
		defer tr.close(parent)
	}
	opts := campaign.Options{Dir: dir, Workers: workers(), CheckpointEvery: w.every}
	t0 := time.Now()
	m, err := campaign.Open(opts)
	if tr != nil {
		tr.add("campaign.open", parent, t0, time.Since(t0))
	}
	if err != nil {
		return failAll(err)
	}

	start := time.Now()
	ids := make([]string, len(w.jobs))
	progress := make([]int, len(w.jobs))
	var wg sync.WaitGroup
	for i, cfg := range w.jobs {
		ts := time.Now()
		job, err := m.Submit(campaign.Spec{Config: cfg})
		var events <-chan campaign.Event
		var cancel func()
		if tr != nil {
			tr.add("campaign.submit", parent, ts, time.Since(ts))
		}
		if err == nil {
			ids[i] = job.ID
			events, cancel, err = m.Subscribe(job.ID)
		}
		if err != nil {
			// Stop closes every subscription, which ends the readers.
			m.Stop()
			wg.Wait()
			return failAll(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cancel()
			for ev := range events {
				if ev.Type == "progress" {
					progress[i]++
				}
			}
		}()
	}
	wg.Wait()
	makespan := time.Since(start)
	m.Stop()
	st.seconds = makespan.Seconds()

	// The set-up measured is a restart: Open over the finished batch scans
	// and verifies every job's manifest. A fresh Open only creates two
	// directories, which times the filesystem rather than the service.
	t0 = time.Now()
	restarted, err := campaign.Open(opts)
	setup := time.Since(t0)
	if err != nil {
		return failAll(err)
	}
	restarted.Stop()
	st.setups = []float64{setup.Seconds()}
	if tr != nil {
		tr.add("campaign.restart", parent, t0, setup)
	}

	h := sha256.New()
	if keep {
		w.raw = make([][]byte, len(w.jobs))
		w.results = make([]roco.Result, len(w.jobs))
		w.snaps = make([]string, len(w.jobs))
	}
	succeeded := 0
	for i, id := range ids {
		job, _ := m.Get(id)
		if tr != nil {
			submitted, started := time.UnixMilli(job.SubmittedAt), time.UnixMilli(job.StartedAt)
			tr.add("job.queued", parent, submitted, started.Sub(submitted))
			tr.add("job.run", parent, started, time.UnixMilli(job.FinishedAt).Sub(started))
			w.queueS = append(w.queueS, started.Sub(submitted).Seconds())
			w.runS = append(w.runS, time.UnixMilli(job.FinishedAt).Sub(started).Seconds())
			w.progress += progress[i]
		}
		data, err := m.Result(id)
		if job.State != campaign.Succeeded || err != nil {
			st.failed++
			st.problems = append(st.problems, fmt.Sprintf("batch %d job %d ended %s: %v %v", u, i, job.State, job.Failure, err))
			continue
		}
		succeeded++
		h.Write(data)
		var res roco.Result
		if err := json.Unmarshal(data, &res); err != nil {
			st.failed++
			st.problems = append(st.problems, fmt.Sprintf("batch %d job %d result: %v", u, i, err))
			continue
		}
		st.cycles += float64(res.Cycles)
		st.pkts += float64(res.DeliveredPackets)
		if keep {
			w.raw[i], w.results[i] = data, res
			w.snaps[i], err = newestSnapshot(filepath.Join(dir, "jobs", id, "snaps"))
			if err != nil {
				st.failed++
				st.problems = append(st.problems, fmt.Sprintf("job %d snapshots: %v", i, err))
			}
		}
	}
	if tr != nil {
		w.jobsPerS = append(w.jobsPerS, float64(succeeded)/makespan.Seconds())
		w.failed += len(w.jobs) - succeeded
	}
	if tr == nil {
		st.digest = hex.EncodeToString(h.Sum(nil))
	}
	return st
}

// newestSnapshot returns the digest of the last snapshot a job wrote.
func newestSnapshot(dir string) (string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "ckpt-*.rocosnap"))
	if err != nil {
		return "", err
	}
	if len(names) == 0 {
		return "", fmt.Errorf("no snapshot in %s", dir)
	}
	sort.Strings(names)
	data, err := os.ReadFile(names[len(names)-1])
	if err != nil {
		return "", err
	}
	return frameDigest(data), nil
}

func (w *campaignWorkload) check(rep *report) {
	if len(w.raw) == 0 || w.raw[0] == nil {
		rep.fail("no untraced batch completed, nothing to check")
		return
	}
	if w.o.seed == goldenSeed {
		h := sha256.New()
		for i := range w.jobs {
			h.Write(w.raw[i])
			fmt.Fprint(h, w.snaps[i])
		}
		checkGolden(rep, w.o, hex.EncodeToString(h.Sum(nil)))
	}
	// The service must return exactly what a direct run returns.
	var direct bytes.Buffer
	err := guard(func() error { return roco.WriteJSON(&direct, roco.Run(w.jobs[0])) })
	switch {
	case err != nil:
		rep.fail("direct run of job 0: %v", err)
	case !bytes.Equal(direct.Bytes(), w.raw[0]):
		rep.fail("job 0: the service's result differs from a direct run")
	}
	cfg := w.jobs[0]
	cfg.MaxCycles = w.refCycles
	want, err := runDigest(cfg)
	if err != nil {
		rep.fail("job 0 prefix: %v", err)
		return
	}
	cfg.ReferenceKernel = true
	got, err := runDigest(cfg)
	switch {
	case err != nil:
		rep.fail("job 0 prefix on the reference kernel: %v", err)
	case got != want:
		rep.fail("job 0: the reference kernel gives a different prefix result")
	}
}

func (w *campaignWorkload) layers(rep *report, tr *tracer) {
	v := rep.values
	v["campaign.jobs_per_s"] = median(w.jobsPerS)
	v["campaign.submit_us_p50"] = percentile(tr.durations("campaign.submit", time.Microsecond), 50)
	v["campaign.queue_wait_s_p50"] = percentile(w.queueS, 50)
	v["campaign.run_s_p50"] = percentile(w.runS, 50)
	if n := len(w.queueS); n > 0 {
		v["campaign.snapshots_per_job"] = float64(w.progress) / float64(n)
	}
	v["campaign.jobs_failed"] = float64(w.failed)
	cfg := w.jobs[0]
	setProbe(rep, cfg, w.refCycles, cfg.ChipsX*cfg.ChipW*cfg.ChipsY*cfg.ChipH)
	exactCounts(rep, w.results)
	fmt.Fprintf(os.Stderr, "job queue wait: %s\njob run: %s\n", describeTail(w.queueS, "s"), describeTail(w.runS, "s"))
}

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"time"

	"github.com/rocosim/roco"
)

// simWorkload is a unit of sequential roco.NewSim + Sim.Run calls.
type simWorkload struct {
	o       options
	configs []roco.Config
	// refSims index the configs rerun on the reference kernel after the
	// timed part. With refCycles 0 each rerun's Result must equal the kept
	// unit's; otherwise both kernels run only the first refCycles cycles.
	// Results are compared, not snapshots: the kernels' snapshot bytes
	// differ in credit-pipe residue that never affects a result.
	refSims   []int
	refCycles int64
	// probeCycle is where the traced run checkpoints and resumes configs[0].
	probeCycle int64

	// From the kept unit: each sim's result, final snapshot
	// digest and configuration fingerprint.
	results []roco.Result
	frames  []string
	fps     []uint64

	// From the traced units, by kindIndex.
	calls [3]callStats
}

func (w *simWorkload) unit(keep bool, tr *tracer) unitStats {
	var st unitStats
	h := sha256.New()
	if keep {
		w.results = make([]roco.Result, len(w.configs))
		w.frames = make([]string, len(w.configs))
		w.fps = make([]uint64, len(w.configs))
	}
	unitSpan := 0
	if tr != nil {
		unitSpan = tr.open("unit", 0)
		defer tr.close(unitSpan)
	}
	for i, cfg := range w.configs {
		st.ops++
		err := guard(func() error {
			if tr != nil {
				return w.tracedSim(i, cfg, tr, unitSpan, &st)
			}
			t0 := time.Now()
			sim := roco.NewSim(cfg)
			t1 := time.Now()
			res := sim.Run()
			t2 := time.Now()
			st.setups = append(st.setups, t1.Sub(t0).Seconds())
			st.seconds += t2.Sub(t1).Seconds()
			st.cycles += float64(res.Cycles)
			st.pkts += float64(res.DeliveredPackets)
			writeResult(h, res)
			if !keep {
				return nil
			}
			frame, err := checkpoint(sim)
			if err != nil {
				return err
			}
			w.results[i], w.frames[i] = res, frameDigest(frame)
			w.fps[i], err = fingerprint(frame)
			return err
		})
		if err != nil {
			st.failed++
			st.problems = append(st.problems, fmt.Sprintf("sim %d: %v", i, err))
		}
	}
	if tr == nil {
		st.digest = hex.EncodeToString(h.Sum(nil))
	}
	return st
}

// tracedSim runs configs[i] on a network built with traced routers,
// recording set-up and every Step as spans, and checks that it ends in
// exactly the state the untraced run ended in.
func (w *simWorkload) tracedSim(i int, cfg roco.Config, tr *tracer, parent int, st *unitStats) error {
	simSpan := tr.open("sim", parent)
	defer tr.close(simSpan)
	t0 := time.Now()
	net, routers := tracedNetwork(cfg)
	setup := time.Since(t0)
	tr.add("network.new", simSpan, t0, setup)
	st.setups = append(st.setups, setup.Seconds())

	last := time.Now()
	runStart := last
	res, _ := net.RunHooked(func() bool {
		now := time.Now()
		tr.add("network.step", simSpan, last, now.Sub(last))
		last = now
		return false
	})
	st.seconds += time.Since(runStart).Seconds()
	st.cycles += float64(res.TotalCycles)
	st.pkts += float64(res.Summary.DeliveredPkts)
	k := kindIndex(cfg.Router)
	for _, r := range routers {
		w.calls[k].merge(&r.st)
	}
	if got := frameDigest(networkFrame(net, w.fps[i])); got != w.frames[i] {
		return fmt.Errorf("traced run ended in a different state than the untraced run")
	}
	return nil
}

// probeSnapshot runs cfg to cycle, then times one Sim.Checkpoint and one
// roco.Resume of the frame, and checks that the resumed Sim checkpoints to
// the same bytes.
func probeSnapshot(cfg roco.Config, cycle int64) (saveMs, loadMs float64, size int, err error) {
	err = guard(func() error {
		sim := roco.NewSim(cfg)
		if _, _, err := sim.RunCheckpointed(roco.CheckpointOptions{CycleBudget: cycle}); err != nil {
			return err
		}
		t0 := time.Now()
		frame, err := checkpoint(sim)
		saveMs = float64(time.Since(t0)) / float64(time.Millisecond)
		if err != nil {
			return err
		}
		t1 := time.Now()
		resumed, err := roco.Resume(bytes.NewReader(frame), cfg)
		loadMs = float64(time.Since(t1)) / float64(time.Millisecond)
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		again, err := checkpoint(resumed)
		if err != nil {
			return err
		}
		if !bytes.Equal(frame, again) {
			return fmt.Errorf("a resumed simulation checkpoints to different bytes")
		}
		size = len(frame)
		return nil
	})
	return saveMs, loadMs, size, err
}

func (w *simWorkload) check(rep *report) {
	if len(w.frames) == 0 || w.frames[0] == "" {
		rep.fail("no untraced unit completed, nothing to check")
		return
	}
	if w.o.seed == goldenSeed {
		h := sha256.New()
		for i := range w.configs {
			writeResult(h, w.results[i])
			fmt.Fprint(h, w.frames[i])
		}
		checkGolden(rep, w.o, hex.EncodeToString(h.Sum(nil)))
	}
	for _, i := range w.refSims {
		cfg := w.configs[i]
		want := resultDigest(w.results[i])
		if w.refCycles > 0 {
			cfg.MaxCycles = w.refCycles
			var err error
			if want, err = runDigest(cfg); err != nil {
				rep.fail("sim %d: %v", i, err)
				continue
			}
		}
		cfg.ReferenceKernel = true
		got, err := runDigest(cfg)
		switch {
		case err != nil:
			rep.fail("sim %d on the reference kernel: %v", i, err)
		case got != want:
			rep.fail("sim %d: the reference kernel gives a different result", i)
		}
	}
}

// checkGolden compares a seed-1 digest with the committed one.
func checkGolden(rep *report, o options, got string) {
	key := o.workload + "/" + map[bool]string{false: "full", true: "smoke"}[o.smoke]
	if want := o.golden[key]; got != want {
		rep.fail("golden digest for %s is %s, committed %q", key, got, want)
	}
}

func (w *simWorkload) layers(rep *report, tr *tracer) {
	v := rep.values
	v["network.new_ms"] = median(tr.durations("network.new", time.Millisecond))
	steps := tr.durations("network.step", time.Microsecond)
	v["network.step_us_p50"] = percentile(steps, 50)
	v["network.step_us_p99"] = percentile(steps, 99)

	var all callStats
	for k := range w.calls {
		all.merge(&w.calls[k])
		v["router.tick_ns_mean."+kindSuffixes[k]] = w.calls[k].tick.mean()
	}
	v["router.tick_ns_mean"] = all.tick.mean()
	if len(steps) > 0 {
		v["network.ticks_per_step"] = float64(all.tick.n) / float64(len(steps))
	}
	var stepNs float64
	for _, us := range steps {
		stepNs += us * 1000
	}
	if stepNs > 0 {
		// Ticks of parallel shards overlap, so a Step's wall time holds
		// about 1/workers of their sum.
		tickWall := float64(all.tick.sum) / float64(max(1, w.configs[0].Workers))
		v["router.tick_share"] = clamp01(tickWall / stepNs)
		v["network.self_share"] = clamp01(1 - (tickWall+float64(all.injectNs))/stepNs)
	}
	v["router.claim_ok_ratio"] = ratio(all.claimOK, all.claims)
	v["router.inject_accept_ratio"] = ratio(all.injectOK, all.injects)
	v["router.idle_tick_ratio"] = ratio(all.idleTicks, all.tick.n)
	cfg := w.configs[0]
	setProbe(rep, cfg, w.probeCycle, cfg.Width*cfg.Height)
	exactCounts(rep, w.results)
	fmt.Fprintf(os.Stderr, "network.step: %s\nrouter.tick: mean %.0f ns, p50 < %.0f ns, p99 < %.0f ns (n=%d)\n",
		describeTail(steps, "us"), all.tick.mean(), all.tick.quantile(0.5), all.tick.quantile(0.99), all.tick.n)
}

// setProbe runs the snapshot probe on cfg and reports it.
func setProbe(rep *report, cfg roco.Config, cycle int64, nodes int) {
	saveMs, loadMs, size, err := probeSnapshot(cfg, cycle)
	if err != nil {
		rep.fail("snapshot probe: %v", err)
		return
	}
	rep.values["snapshot.save_ms"] = saveMs
	rep.values["snapshot.load_ms"] = loadMs
	rep.values["snapshot.bytes_per_node"] = float64(size) / float64(nodes)
}

// exactCounts reports the simulated counts of the kept unit's results,
// which a change that only speeds the simulator up must leave unchanged.
func exactCounts(rep *report, results []roco.Result) {
	v := rep.values
	var contention float64
	for _, r := range results {
		v["sim.cycles"] += float64(r.Cycles)
		v["sim.delivered_pkts"] += float64(r.DeliveredPackets)
		v["protocol.retransmissions"] += float64(r.Retransmissions)
		v["protocol.giveups"] += float64(len(r.GiveUps))
		v["fault.events"] += float64(len(r.FaultEvents))
		v["d2d.flits"] += float64(r.D2DFlits)
		if r.Telemetry != nil {
			v["telemetry.epochs"] += float64(len(r.Telemetry.Epochs))
		}
		contention += r.Contention
	}
	if len(results) > 0 {
		v["router.sa_contention"] = contention / float64(len(results))
	}
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func clamp01(x float64) float64 {
	return max(0, min(1, x))
}

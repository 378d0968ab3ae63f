package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"neurospatial/internal/durable"
	"neurospatial/internal/engine"
	"neurospatial/internal/pager"
	"neurospatial/internal/rtree"
)

var durableDirs atomic.Int64 // distinguishes the directories of one process

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, ent := range entries {
		info, err := ent.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// durableState is what must read back identically after a Close and reopen.
type durableState struct {
	epoch   int
	live    int
	digests []uint64
	last    regrown // the last acknowledged commit
}

// captureState records the dataset's observable state before a Close.
func captureState(dd *engine.DurableDataset, probes []engine.Request, last regrown) (durableState, error) {
	st := dd.Stats()
	s := durableState{epoch: st.Epoch, live: st.Live, last: last}
	snap := dd.Current()
	for _, req := range probes {
		hits, _, _, _, err := timeDo(snap.Indexes()[0], req)
		if err != nil {
			return s, err
		}
		s.digests = append(s.digests, digest(hits))
	}
	return s, nil
}

// checkState verifies a reopened dataset against the pre-Close record and the
// benchmark's live set: epoch, live count, sampled answers, and the last
// acknowledged commit's visibility.
func checkState(r *report, dd *engine.DurableDataset, want durableState, live *liveSet, probes []engine.Request) {
	st := dd.Stats()
	r.op()
	if st.Epoch != want.epoch || st.Live != want.live || st.Live != live.n {
		r.fail("reopened at epoch %d with %d live items, closed at epoch %d with %d (live set %d)",
			st.Epoch, st.Live, want.epoch, want.live, live.n)
	}
	snap := dd.Current()
	for i, req := range probes {
		hits, _, _, _, err := timeDo(snap.Indexes()[0], req)
		if r.check(err, "reopened Do") && digest(hits) != want.digests[i] {
			r.fail("reopened dataset changed its answer to %s", req)
		}
	}
	r.op()
	for _, id := range want.last.inserted {
		if box, ok := snap.ItemBox(id); !ok || box != live.boxes[id] {
			r.fail("acknowledged insert %d is not visible after reopen", id)
			break
		}
	}
	for _, id := range want.last.deleted {
		if _, ok := snap.ItemBox(id); ok {
			r.fail("acknowledged delete %d is still visible after reopen", id)
			break
		}
	}
}

// runDurable is the durable-cold workload: cycles of reopen-with-WAL-tail,
// checkpoint, clean reopen, a cold and three warm passes of range requests
// through real files, and a tail of fsynced commits.
func runDurable(e *env, sc scale, r *report) error {
	ctx := context.Background()
	dir := filepath.Join(e.workDir, fmt.Sprintf("durable-%d-%d", os.Getpid(), durableDirs.Add(1)))
	defer os.RemoveAll(dir)
	var (
		t      *tissue
		live   *liveSet
		rng    *rand.Rand
		order  []int // the seeded order in which neurons are re-grown, cycled
		grown  int
		cold   []engine.Request
		probes []engine.Request
		state  durableState
		commit []float64 // µs, the timed durable commits
	)
	// tail makes n durable commits, each one neuron's re-growth; timed says
	// whether they count into commit_*.
	tail := func(dd *engine.DurableDataset, n int, timed bool) (regrown, error) {
		var last regrown
		for i := 0; i < n; i++ {
			tx := dd.Begin()
			last = live.regrow(rng, tx, order[grown%len(order)])
			grown++
			t0 := time.Now()
			_, err := tx.Commit()
			took := time.Since(t0)
			if timed {
				if !r.check(err, "durable Tx.Commit") {
					return last, err
				}
				commit = append(commit, us(took))
			} else if err != nil {
				return last, err
			}
		}
		return last, nil
	}
	err := e.setup(r, func() error {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		t0 := time.Now()
		var err error
		if t, err = buildTissue(sc); err != nil {
			return err
		}
		r.set("circuit.build_ms", ms(time.Since(t0)), 1)
		r.set("circuit.elements", float64(len(t.items)), 0)
		dd, err := engine.CreateDataset(dir, t.items, engine.DatasetOptions{Contenders: contenders})
		if err != nil {
			return err
		}
		live = newLiveSet(t)
		rng = subRand(e.seed, seedChurn)
		order, grown = rng.Perm(len(live.neurons)), 0
		cold = genColdRequests(e.seed, t.volume, sc.cold)
		probes = genRequests(e.seed, t.volume, 16)
		// The first WAL tail, for the first cycle's reopen to replay.
		last, err := tail(dd, sc.tail, false)
		if err != nil {
			return err
		}
		if state, err = captureState(dd, probes, last); err != nil {
			return err
		}
		return dd.Close()
	})
	if err != nil {
		return err
	}
	r.note("%s: %d elements in %s; %d-commit WAL tails; cold pass of %d range requests, warm pass ×3; reads come from the OS page cache",
		sc.name, len(t.items), dir, sc.tail, len(cold))

	var (
		warm, coldLat                       latencies
		reopens, cleans, checkpoints        []float64
		coldReads, compacts                 []float64
		snapReads, snapWrites, pageWrites   []float64
		readMiss, readHit, appends, walSize []float64
		heap                                float64
	)
	start := e.clock()
	for cycle, last := 0, false; !last; cycle++ {
		e.yield()
		// 1. Reopen with a WAL tail to replay.
		t0 := time.Now()
		dd, err := engine.OpenDataset(dir)
		t1 := time.Now()
		if !r.check(err, "OpenDataset with a WAL tail") {
			return err
		}
		reopens = append(reopens, ms(t1.Sub(t0)))
		// 2. Everything acknowledged before the Close is there.
		checkState(r, dd, state, live, probes)

		// 3. Checkpoint. A traced run folds the overlay first, explicitly, so
		// that compaction and the file writes are timed apart.
		trace := int64(0)
		if e.traced() {
			trace = e.tr.newTrace()
			e.tr.add(trace, 0, "durable.open_replay", t0, t1, map[string]int64{"commits": int64(sc.tail)})
			c0 := time.Now()
			_, err := dd.Compact()
			c1 := time.Now()
			if r.check(err, "Dataset.Compact") {
				compacts = append(compacts, ms(c1.Sub(c0)))
				e.tr.add(trace, 0, "dataset.compact", c0, c1, nil)
			}
		}
		t0 = time.Now()
		err = dd.Checkpoint()
		t1 = time.Now()
		if !r.check(err, "Checkpoint") {
			return err
		}
		checkpoints = append(checkpoints, ms(t1.Sub(t0)))
		man := dd.Manifest()
		if cycle == 0 {
			n, err := dirBytes(dir)
			if err != nil {
				return err
			}
			r.set("durable.disk_bytes_per_item", ratio(float64(n), float64(dd.Stats().Live)), 0)
		}
		if e.traced() {
			ckpt := e.tr.add(trace, 0, "durable.checkpoint", t0, t1, nil)
			s, w, p, err := replayCheckpoint(e, trace, ckpt, dir, man, r)
			if err != nil {
				return err
			}
			snapReads, snapWrites, pageWrites = append(snapReads, s), append(snapWrites, w), append(pageWrites, p)
		}
		state.epoch = dd.Stats().Epoch
		// 4. Close, 5. clean reopen: nothing to replay, every frame empty.
		if err := dd.Close(); !r.check(err, "Close") {
			return err
		}
		if e.traced() {
			miss, hit, err := pageFileReads(filepath.Join(dir, man.Pages))
			if err != nil {
				return err
			}
			readMiss, readHit = append(readMiss, miss), append(readHit, hit)
		}
		t0 = time.Now()
		dd, err = engine.OpenDataset(dir)
		t1 = time.Now()
		if !r.check(err, "clean OpenDataset") {
			return err
		}
		cleans = append(cleans, ms(t1.Sub(t0)))
		checkState(r, dd, state, live, probes)
		sess, err := engine.Open(engine.WithDataset(dd.Dataset))
		if err != nil {
			return err
		}
		// 6. Cold pass, 7. warm passes.
		files := dd.PageFiles()
		readsBefore := files[len(files)-1].Reads()
		answers := make([][]engine.Hit, len(cold))
		for pass := 0; pass < 4; pass++ {
			for i, req := range cold {
				t0 := time.Now()
				res, err := sess.Do(ctx, req)
				took := time.Since(t0)
				if !r.check(err, "Session.Do") {
					continue
				}
				if pass == 0 {
					coldLat.add(took)
					answers[i] = res.Hits
				} else {
					warm.add(took)
				}
				if e.traced() && i%sc.sample == 0 && pass < 2 {
					layer := "session.do.cold"
					if pass == 1 {
						layer = "session.do.warm"
					}
					e.tr.add(e.tr.newTrace(), 0, layer, t0, t0.Add(took), map[string]int64{"pages": res.Stats.PagesRead})
				}
			}
			if pass == 0 {
				coldReads = append(coldReads, float64(files[len(files)-1].Reads()-readsBefore))
			}
		}
		coldLat.endRound()
		warm.endRound()
		for i := 0; i < len(cold); i += sc.every {
			verify(r, live, sess.Snapshot(), cold[i], answers[i])
		}
		sess.Close()
		// 8. A tail of durable commits: WAL append and fsync before publish.
		walPath := filepath.Join(dir, man.WAL)
		before, err := os.Stat(walPath)
		if err != nil {
			return err
		}
		firstNew := len(live.boxes)
		tailEnd, err := tail(dd, sc.tail, true)
		if err != nil {
			return err
		}
		after, err := os.Stat(walPath)
		if err != nil {
			return err
		}
		if cycle == 0 {
			// Every op of the tail is one delete or one insert of a fresh ID.
			ops := 2 * (len(live.boxes) - firstNew)
			walSize = append(walSize, ratio(float64(after.Size()-before.Size()), float64(ops)))
		}
		if e.traced() {
			us, err := walAppend(e, dir, tailEnd, live, uint64(dd.Stats().Epoch))
			if err != nil {
				return err
			}
			appends = append(appends, us)
		}
		if last = cycle >= 1 && e.spent(start, e.seconds); last {
			heap = e.heapMB() // with the dataset still open
		}
		if state, err = captureState(dd, probes, tailEnd); err != nil {
			return err
		}
		// 9. Close.
		if err := dd.Close(); !r.check(err, "Close") {
			return err
		}
	}
	warm.report(r, "query_p50_us", "query_p99_us", "query_qps")
	coldLat.report(r, "query_cold_p50_us", "durable.query_cold_p99_us", "")
	r.set("commit_p50_us", calmLow(roundsOf(commit, commitRounds, commitRoundMin, 0.50)), len(commit))
	r.set("commit_p95_us", calmLow(roundsOf(commit, commitRounds, commitRoundMin, 0.95)), len(commit))
	r.setCalm("reopen_ms", reopens)
	r.setCalm("checkpoint_ms", checkpoints)
	r.set("heap_mb", heap, 1)

	r.setCalm("durable.open_clean_ms", cleans)
	r.set("wal.replay_ms", calmLow(reopens)-calmLow(cleans), len(reopens))
	r.setMedian("pagefile.reads_per_cold_pass", coldReads)
	r.setMedian("wal.bytes_per_op", walSize)
	r.setMedian("dataset.compact_ms", compacts)
	r.setMedian("snapfile.read_ms", snapReads)
	r.setMedian("snapfile.write_ms", snapWrites)
	r.setMedian("pagefile.write_ms", pageWrites)
	r.setMedian("pagefile.read_miss_ns", readMiss)
	r.setMedian("pagefile.read_hit_ns", readHit)
	r.setMedian("wal.append_us", appends)
	return nil
}

// replayCheckpoint times a checkpoint's file writes on scratch files: read the
// snapshot file the checkpoint just wrote, write it back, rebuild the four
// bases over its items and write their pages. It returns the snapshot read,
// snapshot write and page-file write times in ms.
func replayCheckpoint(e *env, trace, parent int64, dir string, man durable.Manifest, r *report) (snapRead, snapWrite, pageWrite float64, err error) {
	scratch := filepath.Join(dir, "scratch")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(scratch)
	t0 := time.Now()
	rec, err := durable.ReadSnapshot(filepath.Join(dir, man.Snapshot))
	t1 := time.Now()
	if err != nil {
		return 0, 0, 0, err
	}
	e.tr.add(trace, 0, "snapfile.read", t0, t1, map[string]int64{"items": int64(len(rec.Items))})
	snapRead = ms(t1.Sub(t0))

	t0 = time.Now()
	err = durable.WriteSnapshot(filepath.Join(scratch, "snap"), rec)
	t1 = time.Now()
	if err != nil {
		return 0, 0, 0, err
	}
	e.tr.add(trace, parent, "snapfile.write", t0, t1, nil)
	snapWrite = ms(t1.Sub(t0))

	local := make([]rtree.Item, len(rec.Items))
	for l, it := range rec.Items {
		local[l] = rtree.Item{Box: it.Box, ID: int32(l)}
	}
	bases, err := buildBases(local, r)
	if err != nil {
		return 0, 0, 0, err
	}
	var segs []durable.Segment
	for _, name := range contenders {
		segs = append(segs, durable.Segment{Name: name, Store: bases.byName[name].Store()})
	}
	t0 = time.Now()
	err = durable.WritePageFile(filepath.Join(scratch, "pages"), segs)
	t1 = time.Now()
	if err != nil {
		return 0, 0, 0, err
	}
	e.tr.add(trace, parent, "pagefile.write", t0, t1, map[string]int64{"segments": int64(len(segs))})
	return snapRead, snapWrite, ms(t1.Sub(t0)), nil
}

// pageFileReads opens the page file on its own and reads every page of the
// flat segment twice: a miss (ReadAt, CRC, decode) and a hit (the frame).
// It returns the mean time per page of each, in ns.
func pageFileReads(path string) (miss, hit float64, err error) {
	pf, err := durable.OpenPageFile(path)
	if err != nil {
		return 0, 0, err
	}
	defer pf.Close()
	seg, err := pf.Segment("flat")
	if err != nil {
		return 0, 0, err
	}
	n := seg.NumPages()
	var took [2]time.Duration
	for pass := range took {
		t0 := time.Now()
		for p := 0; p < n; p++ {
			seg.ReadPage(pager.PageID(p))
		}
		took[pass] = time.Since(t0)
	}
	return float64(took[0].Nanoseconds()) / float64(n), float64(took[1].Nanoseconds()) / float64(n), nil
}

// walAppend times WAL.Append — encode, write, fsync — of the last commit's ops
// on a scratch log, in µs.
func walAppend(e *env, dir string, last regrown, live *liveSet, epoch uint64) (float64, error) {
	path := filepath.Join(dir, "scratch.wal")
	defer os.Remove(path)
	w, err := durable.CreateWAL(path, epoch)
	if err != nil {
		return 0, err
	}
	rec := durable.Record{Epoch: epoch + 1}
	for i, id := range last.deleted {
		rec.Ops = append(rec.Ops,
			durable.Op{Kind: durable.OpDelete, ID: id},
			durable.Op{Kind: durable.OpInsert, ID: last.inserted[i], Box: live.boxes[last.inserted[i]]})
	}
	t0 := time.Now()
	err = w.Append(rec)
	t1 := time.Now()
	if err != nil {
		w.Close()
		return 0, err
	}
	e.tr.add(e.tr.newTrace(), 0, "wal.append", t0, t1, map[string]int64{"ops": int64(len(rec.Ops))})
	return us(t1.Sub(t0)), w.Close()
}

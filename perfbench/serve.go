package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"xoridx/internal/core"
	"xoridx/internal/faultio"
	"xoridx/internal/hash"
	"xoridx/internal/serve"
	"xoridx/internal/workloads"
)

// serveSpec is the closed-loop serve workload: clients cycle through
// kernels' data traces and stream them window by window; after every
// window the benchmark calls Retune and waits for the new epoch.
type serveSpec struct {
	kernels       []string
	scale         int
	clients       int
	totalAccesses int
	window        int // accesses per window, all clients together
	batch         int // accesses per wire frame
}

type serveRunner struct {
	spec    serveSpec
	workDir string
	ids     []uint64   // client IDs, one per shard
	windows [][][]byte // [window][client] XIG1 stream
	sent    [][]int    // [window][client] accesses in that stream
	frames  [][]int    // [window][client] frames in that stream
}

// serveOptions is the server configuration: the xoridx serve defaults
// (general XOR, 4 KB, n=16, decay 0.25, checkpoint file on) with two
// shards and two search workers. The server's own window trigger is
// set past the stream, so the benchmark's Retune calls alone decide
// where windows rotate and every run rotates at the same accesses.
func (r *serveRunner) serveOptions(ckpt string, events core.Sink) serve.Options {
	return serve.Options{
		Config: core.Config{
			CacheBytes: 4096,
			BlockBytes: blockBytes,
			AddrBits:   addrBits,
			Family:     hash.FamilyGeneralXOR,
			Workers:    workers,
		},
		Shards:         r.spec.clients,
		WindowAccesses: 1 << 62,
		Decay:          0.25,
		CheckpointPath: ckpt,
		RestartBackoff: faultio.DefaultPolicy,
		Events:         events,
	}
}

// setupServe generates the kernels' block streams, builds each
// client's stream from them, and encodes every client's share of every
// window as an XIG1 stream.
//
// The clients run the kernel cycle half a cycle apart, and the seed
// picks which client starts where. That changes which shard profiles
// which accesses, but not the merged profile each re-tune searches, so
// every seed does the same re-tune work. The seed does not move the
// kernels' bases as the tune workloads do, nor where the cycle starts:
// in sizing runs either one moved the median round's staleness by up
// to a fifth between seeds, far above the run-to-run noise.
func setupServe(spec serveSpec, seed uint64, workDir string) (*serveRunner, error) {
	r := &serveRunner{spec: spec, workDir: workDir}
	blocks := make([][]uint64, len(spec.kernels))
	for i, name := range spec.kernels {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		blocks[i] = w.Data(spec.scale).Blocks(blockBytes, addrBits)
	}
	shift := int(newSplitmix(seed).next() % uint64(spec.clients))

	ids, err := clientIDs(r.serveOptions("", nil), spec.clients)
	if err != nil {
		return nil, err
	}
	perClient := spec.totalAccesses / spec.clients
	perWindow := spec.window / spec.clients
	nWin := (perClient + perWindow - 1) / perWindow
	r.windows = make([][][]byte, nWin)
	r.sent = make([][]int, nWin)
	r.frames = make([][]int, nWin)
	for w := range r.windows {
		r.windows[w] = make([][]byte, spec.clients)
		r.sent[w] = make([]int, spec.clients)
		r.frames[w] = make([]int, spec.clients)
	}
	for c := 0; c < spec.clients; c++ {
		start := (c + shift) % spec.clients * len(blocks) / spec.clients
		stream := cycle(blocks, start, perClient)
		for w := 0; w < nWin; w++ {
			chunk := stream[w*perWindow : min((w+1)*perWindow, perClient)]
			var buf bytes.Buffer
			bw := serve.NewBatchWriter(&buf)
			for off := 0; off < len(chunk); off += spec.batch {
				if err := bw.WriteBatch(ids[c], chunk[off:min(off+spec.batch, len(chunk))]); err != nil {
					return nil, err
				}
				r.frames[w][c]++
			}
			r.windows[w][c] = buf.Bytes()
			r.sent[w][c] = len(chunk)
		}
	}
	return r, nil
}

// cycle concatenates the kernels' streams in order, starting with
// kernel start and wrapping, until n accesses.
func cycle(blocks [][]uint64, start, n int) []uint64 {
	out := make([]uint64, 0, n)
	for i := start; len(out) < n; i++ {
		b := blocks[i%len(blocks)]
		out = append(out, b[:min(len(b), n-len(out))]...)
	}
	return out
}

// clientIDs picks the smallest client IDs that land on distinct
// shards, so concurrent clients never share a shard queue.
func clientIDs(opt serve.Options, k int) ([]uint64, error) {
	s, err := serve.New(opt)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	taken := make(map[int]bool)
	var ids []uint64
	for id := uint64(0); len(ids) < k; id++ {
		if sh := s.ShardOf(id); !taken[sh] {
			taken[sh] = true
			ids = append(ids, id)
		}
	}
	return ids, nil
}

// searchClock turns the re-tune rounds' search StageStarted and
// StageFinished events into spans, keyed by round.
type searchClock struct {
	mu         sync.Mutex
	start      map[int]time.Time
	end        map[int]time.Time
	evaluated  uint64
	iterations uint64
}

func (c *searchClock) Emit(e core.Event) {
	if e.Stage != core.StageSearch || e.Kind == core.SearchProgress {
		return
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.Kind == core.StageStarted {
		c.start[e.Round] = now
	} else {
		c.end[e.Round] = now
		c.evaluated += uint64(e.Evaluated)
		c.iterations += uint64(e.Iteration)
	}
}

// pass streams every window through a fresh server: both clients'
// ServeIngest calls run concurrently and return, the window closes,
// Retune runs and the new epoch is read back through Current.
func (r *serveRunner) pass(rec *recorder) (*passOut, error) {
	ctx := context.Background()
	ckpt := filepath.Join(r.workDir, "serve.ckpt")
	if err := os.Remove(ckpt); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	var clock *searchClock
	var events core.Sink
	if rec != nil {
		clock = &searchClock{start: map[int]time.Time{}, end: map[int]time.Time{}}
		events = clock
	}
	s, err := serve.New(r.serveOptions(ckpt, events))
	if err != nil {
		return nil, err
	}
	out := &passOut{}
	dg := newDigest()
	var (
		sent, rejected, rejectedFrames, wireBytes uint64
		ingest, drain, searchTotal                time.Duration
		retunes, searches, rest                   []float64
		estSum, baseSum                           float64
		prevSeq                                   = s.Current().Seq
	)
	start := time.Now()
	root := rec.begin("workload", "", 0)
	for w, streams := range r.windows {
		group := fmt.Sprintf("window-%d", w)
		wspan := rec.begin("window", group, root)
		t0 := time.Now()
		errs := make([]error, len(streams))
		var wg sync.WaitGroup
		for c, b := range streams {
			wg.Add(1)
			go func(c int, b []byte) {
				defer wg.Done()
				sp := rec.begin("ingest", group, wspan)
				errs[c] = s.ServeIngest(ctx, bytes.NewReader(b))
				rec.end(sp)
			}(c, b)
		}
		wg.Wait()
		closed := time.Now()
		ingest += closed.Sub(t0)
		for c, b := range streams {
			out.attempted += r.frames[w][c]
			sent += uint64(r.sent[w][c])
			wireBytes += uint64(len(b))
			if errs[c] != nil {
				rejected += uint64(r.sent[w][c])
				rejectedFrames += uint64(r.frames[w][c])
				fmt.Fprintf(os.Stderr, "window %d client %d: ingest: %v\n", w, c, errs[c])
			}
		}
		if rec != nil {
			// Profile queues behind every accepted batch on every shard,
			// so it returns once the window's per-access work is done.
			sp := rec.begin("drain", group, wspan)
			d0 := time.Now()
			_, err := s.Profile()
			drain += time.Since(d0)
			rec.end(sp)
			if err != nil {
				out.check("window %d: drain: %v", w, err)
			}
		}

		out.attempted++
		sp := rec.begin("retune", group, wspan)
		r0 := time.Now()
		ep, err := s.Retune(ctx)
		rd := time.Since(r0)
		rec.end(sp)
		if err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "window %d: retune: %v\n", w, err)
			dg.str(fmt.Sprintf("window %d error: %v", w, err))
			rec.end(wspan)
			continue
		}
		if cur := s.Current(); cur.Seq < ep.Seq {
			out.check("window %d: Current serves epoch %d after Retune published %d", w, cur.Seq, ep.Seq)
		}
		out.latenciesMs = append(out.latenciesMs, ms(time.Since(closed)))
		rec.end(wspan)

		if ep.Seq != prevSeq+1 {
			out.check("window %d: epoch seq %d after %d", w, ep.Seq, prevSeq)
		}
		if ep.Estimated > ep.PrevEstimated {
			out.check("window %d: estimate %d above incumbent's %d", w, ep.Estimated, ep.PrevEstimated)
		}
		prevSeq = ep.Seq
		estSum += float64(ep.Estimated)
		baseSum += float64(ep.Baseline)
		dg.u64(ep.Seq)
		dg.matrix(ep.Func.Matrix())
		dg.u64(ep.Estimated)
		dg.flag(ep.Changed)

		if clock != nil {
			retunes = append(retunes, rd.Seconds())
			clock.mu.Lock()
			b, e := clock.start[int(ep.Window)], clock.end[int(ep.Window)]
			clock.mu.Unlock()
			if !b.IsZero() && !e.IsZero() {
				rec.add("search", group, sp, b, e)
				searchTotal += e.Sub(b)
				searches = append(searches, e.Sub(b).Seconds())
				rest = append(rest, rd.Seconds()-e.Sub(b).Seconds())
			}
		}
	}
	rec.end(root)
	out.wall = time.Since(start)
	st := s.Stats()
	if err := s.Close(); err != nil {
		out.check("close: %v", err)
	}
	if err := s.Err(); err != nil {
		out.check("background: %v", err)
	}
	var ckptBytes int64
	if fi, err := os.Stat(ckpt); err == nil {
		ckptBytes = fi.Size()
	}

	// Conservation: every access sent was ingested, shed, dropped at a
	// quarantined shard, or belongs to a stream the server rejected
	// (which may have been partly ingested before the error).
	accounted := st.Ingested + st.Shed + st.DroppedQuarantined
	if accounted > sent || sent > accounted+rejected {
		out.check("conservation: sent %d, ingested %d + shed %d + dropped %d + rejected %d",
			sent, st.Ingested, st.Shed, st.DroppedQuarantined, rejected)
	}
	if st.Rotations != uint64(len(out.latenciesMs)) {
		out.check("%d rotations for %d completed rounds", st.Rotations, len(out.latenciesMs))
	}
	dropFrames := (st.DroppedQuarantined + uint64(r.spec.batch) - 1) / uint64(r.spec.batch)
	out.failed += int(st.ShedBatches + dropFrames + rejectedFrames)

	out.rateAccesses = float64(st.Ingested)
	out.reductionNum, out.reductionDen = estSum, baseSum
	out.digest = dg.sum()
	if rec != nil {
		out.layer = map[string]float64{
			"search.s":                         searchTotal.Seconds(),
			"search.evaluated":                 float64(clock.evaluated),
			"search.iterations":                float64(clock.iterations),
			"search.evals_per_s":               rate(clock.evaluated, searchTotal),
			"serve.ingest_s":                   ingest.Seconds(),
			"serve.wire_bytes":                 float64(wireBytes),
			"serve.batches":                    float64(st.Batches),
			"serve.drain_s":                    drain.Seconds(),
			"serve.retune_s_p50":               median(retunes),
			"serve.search_s_p50":               median(searches),
			"serve.rotate_merge_publish_s_p50": median(rest),
			"serve.search_evaluated":           float64(clock.evaluated),
			"serve.checkpoint_bytes":           float64(ckptBytes),
			"serve.rounds":                     float64(st.Rotations),
			"serve.swaps":                      float64(st.Swaps),
			"serve.shed":                       float64(st.Shed),
			"serve.dropped":                    float64(st.DroppedQuarantined),
			"serve.restarts":                   float64(st.Restarts),
		}
	}
	return out, nil
}

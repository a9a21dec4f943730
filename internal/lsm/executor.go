package lsm

import (
	"time"

	"timeunion/internal/tuple"
)

// This file implements the compaction orchestrator/executor split
// (DESIGN.md §4.11, after SlateDB's Orchestrator/Scheduler/Executor):
// scheduleLocked inspects the tree for compaction triggers and turns them
// into jobs over disjoint time intervals; a bounded pool of
// compactionWorker goroutines executes them, each committing its own
// manifest edit. Disjointness of the jobs' aligned output intervals is the
// concurrency invariant: two in-flight jobs can never read, replace, or
// produce the same partition, so their manifest commits serialize only at
// the (cheap) manifest write itself.

type jobKind int

const (
	jobL0L1 jobKind = iota
	jobL1L2
)

func (k jobKind) String() string {
	if k == jobL0L1 {
		return "l0l1"
	}
	return "l1l2"
}

// compactionJob is one scheduled compaction over a busy-marked set of
// partitions and the aligned time interval [lo, hi) its outputs may cover.
type compactionJob struct {
	kind   jobKind
	inputs []*partition // L0/L1 partitions consumed (removed on publish)
	// overlapped are the L2 partitions an L1→L2 job patches in place; they
	// stay in the tree but are busy-marked so no other job splices them.
	overlapped []*partition
	handles    []*tableHandle // input tables, retained at schedule time
	outLen     int64          // output partition length
	lo, hi     int64          // aligned busy interval [lo, hi)

	// admitted is when the job entered the queue (journal queue-wait field).
	admitted time.Time
	// res is filled by runL0L1/runL1L2 for the journal event.
	res jobResult
}

// jobResult summarizes one executed compaction for the journal.
type jobResult struct {
	tablesOut, partsOut, patchesOut int
	bytesOut                        int64
}

// scheduleLocked drains every currently-satisfiable compaction trigger
// into the job queue. Caller holds l.mu. Idempotent: partitions claimed by
// a scheduled job are busy-marked, so re-running it never double-schedules.
func (l *LSM) scheduleLocked() {
	if l.closed || l.bgErr != nil {
		return
	}
	for {
		job := l.nextL0L1JobLocked()
		if job == nil {
			job = l.nextL1L2JobLocked()
		}
		if job == nil {
			return
		}
		l.admitJobLocked(job)
	}
}

// admitJobLocked claims the job's partitions, retains its input tables,
// and queues it for a worker. Caller holds l.mu.
func (l *LSM) admitJobLocked(job *compactionJob) {
	for _, p := range job.inputs {
		l.busyParts[p] = true
		job.handles = append(job.handles, allTables(p)...)
	}
	for _, p := range job.overlapped {
		l.busyParts[p] = true
	}
	for _, h := range job.handles {
		h.retain()
	}
	job.admitted = time.Now()
	l.liveJobs[job] = true
	l.jobs = append(l.jobs, job)
	l.jobCond.Signal()
}

// finishJobLocked releases the job's claims after it ran (or was
// abandoned). Caller holds l.mu.
func (l *LSM) finishJobLocked(job *compactionJob) {
	releaseAll(job.handles)
	for _, p := range job.inputs {
		delete(l.busyParts, p)
	}
	for _, p := range job.overlapped {
		delete(l.busyParts, p)
	}
	delete(l.liveJobs, job)
}

// intervalBusyLocked reports whether [lo, hi) overlaps any live job's
// interval. Caller holds l.mu.
func (l *LSM) intervalBusyLocked(lo, hi int64) bool {
	for j := range l.liveJobs {
		if j.lo < hi && lo < j.hi {
			return true
		}
	}
	return false
}

// nextL0L1JobLocked builds an L0→L1 job when the free (not busy) L0
// partition count exceeds the configured maximum, choosing the oldest
// schedulable victim. Caller holds l.mu.
func (l *LSM) nextL0L1JobLocked() *compactionJob {
	free := 0
	for _, p := range l.l0 {
		if !l.busyParts[p] {
			free++
		}
	}
	if free <= l.opts.MaxL0Partitions {
		return nil
	}
	for _, victim := range l.l0 {
		if l.busyParts[victim] {
			continue
		}
		inputs, outLen, alo, ahi, ok := l.gatherL0L1InputsLocked(victim)
		if !ok || l.intervalBusyLocked(alo, ahi) {
			continue
		}
		return &compactionJob{kind: jobL0L1, inputs: inputs, outLen: outLen, lo: alo, hi: ahi}
	}
	return nil
}

// gatherL0L1InputsLocked computes the aligned-span overlap closure of the
// victim: starting from the victim's window, repeatedly absorb every L0/L1
// partition overlapping the current span aligned to the (shrinking) output
// grid, until stable. This is strictly stronger than pairwise transitive
// overlap — an L1 partition overlapping another input but not the victim
// is pulled in (chained overlap), and so is one only touched by the grid
// alignment of the output windows — which is what guarantees the job's
// outputs never overlap a live partition outside the job.
func (l *LSM) gatherL0L1InputsLocked(victim *partition) (inputs []*partition, outLen, alo, ahi int64, ok bool) {
	in := map[*partition]bool{victim: true}
	inputs = []*partition{victim}
	lo, hi := victim.minT, victim.maxT
	outLen = victim.length()
	for {
		alo = tuple.WindowStart(lo, outLen)
		ahi = tuple.WindowStart(hi-1, outLen) + outLen
		grew := false
		for _, lvl := range [][]*partition{l.l0, l.l1} {
			for _, p := range lvl {
				if in[p] || !p.overlaps(alo, ahi) {
					continue
				}
				in[p] = true
				inputs = append(inputs, p)
				if p.minT < lo {
					lo = p.minT
				}
				if p.maxT > hi {
					hi = p.maxT
				}
				if p.length() < outLen {
					outLen = p.length()
				}
				grew = true
			}
		}
		if !grew {
			break
		}
	}
	for _, p := range inputs {
		if l.busyParts[p] {
			return nil, 0, 0, 0, false
		}
	}
	return inputs, outLen, alo, ahi, true
}

// nextL1L2JobLocked builds an L1→L2 job for the oldest R2 window whose
// level-1 data extends a full R2 beyond it. Caller holds l.mu.
func (l *LSM) nextL1L2JobLocked() *compactionJob {
	if len(l.l1) == 0 {
		return nil
	}
	lastMax := l.l1[0].maxT
	for _, p := range l.l1 {
		if p.maxT > lastMax {
			lastMax = p.maxT
		}
	}
	seen := map[int64]bool{}
	for _, first := range l.l1 { // sorted by minT: oldest window first
		w := tuple.WindowStart(first.minT, l.r2)
		if seen[w] {
			continue
		}
		seen[w] = true
		if lastMax-first.minT <= l.r2 {
			continue // window still filling
		}
		var inputs []*partition
		busy := false
		for _, p := range l.l1 {
			if p.overlaps(w, w+l.r2) {
				if l.busyParts[p] {
					busy = true
					break
				}
				inputs = append(inputs, p)
			}
		}
		if busy || len(inputs) == 0 {
			continue
		}
		inMin, inMax := inputs[0].minT, inputs[0].maxT
		for _, p := range inputs[1:] {
			if p.minT < inMin {
				inMin = p.minT
			}
			if p.maxT > inMax {
				inMax = p.maxT
			}
		}
		outLen := l.r2
		var overlapped []*partition
		for _, p := range l.l2 {
			if p.overlaps(inMin, inMax) {
				if l.busyParts[p] {
					busy = true
					break
				}
				overlapped = append(overlapped, p)
				if p.length() < outLen {
					outLen = p.length()
				}
			}
		}
		if busy {
			continue
		}
		lo, hi := inMin, inMax
		if w < lo {
			lo = w
		}
		if w+l.r2 > hi {
			hi = w + l.r2
		}
		for _, p := range overlapped {
			if p.minT < lo {
				lo = p.minT
			}
			if p.maxT > hi {
				hi = p.maxT
			}
		}
		alo := tuple.WindowStart(lo, outLen)
		ahi := tuple.WindowStart(hi-1, outLen) + outLen
		if l.intervalBusyLocked(alo, ahi) {
			continue
		}
		return &compactionJob{kind: jobL1L2, inputs: inputs, overlapped: overlapped, outLen: outLen, lo: alo, hi: ahi}
	}
	return nil
}

// compactionWorker is one executor-pool goroutine: pop a job, run it,
// commit, release, reschedule. worker is the pool index carried into the
// journal's compaction events.
func (l *LSM) compactionWorker(worker int) {
	defer l.workerWg.Done()
	l.mu.Lock()
	for {
		for len(l.jobs) == 0 && !l.closed {
			l.jobCond.Wait()
		}
		if len(l.jobs) == 0 {
			l.mu.Unlock()
			return
		}
		job := l.jobs[0]
		l.jobs[0] = nil // the backing array must not pin the job's inputs
		l.jobs = l.jobs[1:]
		if l.bgErr != nil || l.closed {
			// Abandon without running; the tree is poisoned or shutting
			// down. Inputs stay live (their data is still the truth).
			l.finishJobLocked(job)
			if j := l.opts.Journal; j != nil {
				// One event per abandoned job inside the worker loop: the
				// loop itself never returns until shutdown, so a deferred
				// emit could never attribute events to individual jobs.
				//lint:ignore journalcover per-job abandonment events inside the worker loop are intentional; the loop is not an op boundary
				j.Emit("lsm.job_abandoned", job.admitted, l.bgErr, map[string]any{
					"job": job.kind.String(), "worker": worker,
				})
			}
			l.idleCond.Broadcast()
			continue
		}
		l.compActive++
		if p := uint64(l.compActive); p > l.stats.parallelPeak.Load() {
			l.stats.parallelPeak.Store(p)
		}
		l.mu.Unlock()

		err := l.runJob(job, worker)

		l.mu.Lock()
		l.compActive--
		l.finishJobLocked(job)
		if err != nil && l.bgErr == nil {
			l.bgErr = err
		}
		l.adjustPartitionLengthsLocked()
		l.scheduleLocked()
		l.idleCond.Broadcast()
	}
}

// runJob dispatches one compaction job, times it, and journals it with the
// full executor-lifecycle context (worker id, queue wait, tables and bytes
// in/out, the aligned interval).
func (l *LSM) runJob(job *compactionJob, worker int) (err error) {
	start := time.Now()
	defer func() {
		l.mCompact.Observe(time.Since(start))
		if j := l.opts.Journal; j != nil {
			var bytesIn int64
			for _, h := range job.handles {
				bytesIn += h.tbl.Size()
			}
			fields := map[string]any{
				"worker":         worker,
				"queue_us":       start.Sub(job.admitted).Microseconds(),
				"tables_in":      len(job.handles),
				"bytes_in":       bytesIn,
				"partitions_in":  len(job.inputs),
				"tables_out":     job.res.tablesOut,
				"bytes_out":      job.res.bytesOut,
				"partitions_out": job.res.partsOut,
				"interval_lo":    job.lo,
				"interval_hi":    job.hi,
			}
			kind := "lsm.compact.l0l1"
			if job.kind == jobL1L2 {
				kind = "lsm.compact.l1l2"
				fields["patches_out"] = job.res.patchesOut
				fields["overlapped_l2"] = len(job.overlapped)
			}
			j.Emit(kind, start, err, fields)
		}
	}()
	if job.kind == jobL0L1 {
		return l.runL0L1(job)
	}
	return l.runL1L2(job)
}

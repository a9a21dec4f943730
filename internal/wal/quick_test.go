package wal

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"timeunion/internal/labels"
)

// TestRandomOpsRecoverToModel drives random sequences of single-sample
// writes, staged batches over adjacent-id runs (with occasional seq
// skips), staged group rounds, commits, multi-mark flushes, purges and
// reopens, and checks that recovery always reproduces exactly the
// unflushed suffix of every series and group.
func TestRandomOpsRecoverToModel(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		t.Run(string(rune('a'+seed)), func(t *testing.T) {
			dir := t.TempDir()
			rnd := rand.New(rand.NewSource(seed))
			w, err := Open(dir, Options{SegmentSize: 512})
			if err != nil {
				t.Fatal(err)
			}

			const nSeries, nGroups = 8, 2
			const gidBase = uint64(1) << 63
			var ids []uint64 // every series and group, in a fixed order
			for id := uint64(1); id <= nSeries; id++ {
				ids = append(ids, id)
			}
			for g := uint64(1); g <= nGroups; g++ {
				ids = append(ids, gidBase+g)
			}
			model := map[uint64][]logged{} // id or gid -> all entries in order
			flushed := map[uint64]uint64{} // id or gid -> flushed seq
			last := map[uint64]uint64{}    // id or gid -> newest seq
			clock := uint64(0)             // every seq comes from it, so seqs rise per id
			for id := uint64(1); id <= nSeries; id++ {
				if err := w.LogSeries(id, labels.FromStrings("id", string(rune('A'+id)))); err != nil {
					t.Fatal(err)
				}
			}
			add := func(e logged) {
				model[e.id] = append(model[e.id], e)
				last[e.id] = e.seq
			}

			for op := 0; op < 400; op++ {
				switch r := rnd.Intn(20); {
				case r < 2: // one flush's marks over random ids
					var marks []FlushMark
					for _, id := range ids {
						if last[id] > flushed[id] && rnd.Intn(2) == 0 {
							mark := flushed[id] + uint64(rnd.Int63n(int64(last[id]-flushed[id]))) + 1
							marks = append(marks, FlushMark{ID: id, Seq: mark})
							flushed[id] = mark
						}
					}
					if err := w.LogFlushMarks(marks); err != nil {
						t.Fatal(err)
					}
				case r < 4:
					if _, err := w.Purge(); err != nil {
						t.Fatal(err)
					}
				case r < 5: // reopen mid-stream; Close commits what is staged
					if err := w.Close(); err != nil {
						t.Fatal(err)
					}
					if w, err = Open(dir, Options{SegmentSize: 512}); err != nil {
						t.Fatal(err)
					}
				case r < 6:
					if err := w.Commit(); err != nil {
						t.Fatal(err)
					}
				case r < 8: // a staged group round
					clock++
					gid := gidBase + 1 + uint64(rnd.Intn(nGroups))
					e := logged{id: gid, seq: clock, t: rnd.Int63n(1 << 30), vals: []float64{rnd.Float64(), rnd.Float64()}}
					if err := w.StageGroupSample(gid, e.seq, e.t, []uint32{0, 1}, e.vals); err != nil {
						t.Fatal(err)
					}
					add(e)
				case r < 14: // a staged run of adjacent ids sharing seq and t
					clock++
					first := uint64(1 + rnd.Intn(nSeries))
					n := uint64(1 + rnd.Intn(int(nSeries-first+1)))
					ts := rnd.Int63n(1 << 30)
					skipped := false
					for id := first; id < first+n; id++ {
						e := logged{id: id, seq: clock, t: ts, v: rnd.Float64()}
						if rnd.Intn(6) == 0 { // a seq skip breaks the run
							e.seq, skipped = clock+1, true
						}
						if err := w.StageSample(id, e.seq, e.t, e.v); err != nil {
							t.Fatal(err)
						}
						add(e)
					}
					if skipped {
						clock++
					}
				default: // a single-sample record
					clock++
					id := uint64(1 + rnd.Intn(nSeries))
					e := logged{id: id, seq: clock, t: rnd.Int63n(1 << 30), v: rnd.Float64()}
					if err := w.LogSample(id, e.seq, e.t, e.v); err != nil {
						t.Fatal(err)
					}
					add(e)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			// Final recovery: exactly the unflushed entries, in order.
			w2, err := Open(dir, Options{SegmentSize: 512})
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			replay, err := recoverLogged(w2)
			if err != nil {
				t.Fatal(err)
			}
			got := map[uint64][]logged{}
			for _, e := range replay {
				got[e.id] = append(got[e.id], e)
			}
			for id, all := range model {
				var want []logged
				for _, e := range all {
					if e.seq > flushed[id] {
						want = append(want, e)
					}
				}
				if !reflect.DeepEqual(got[id], want) {
					t.Fatalf("id %d: recovered %+v, want %+v", id, got[id], want)
				}
				delete(got, id)
			}
			if len(got) != 0 {
				t.Fatalf("recovered entries of ids never logged: %v", got)
			}
		})
	}
}

// TestPurgeRacesWriters runs Purge in a loop against writers that stage and
// commit rounds and, after about half of them, mark the round flushed and
// pause, so the active segment is now and then all flushed while writes
// race the purge. Recovery must return every committed sample above its
// series' mark, in order, and nothing else.
func TestPurgeRacesWriters(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	const writers, idsPer, rounds = 3, 4, 300
	marks := make([]uint64, writers) // writer -> mark of all its ids
	var wg sync.WaitGroup
	done := make(chan struct{})
	purgeErr := make(chan error, 1)
	go func() {
		defer close(purgeErr)
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := w.Purge(); err != nil {
				purgeErr <- err
				return
			}
		}
	}()
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(wi)))
			first := uint64(wi*idsPer + 1)
			for seq := uint64(1); seq <= rounds; seq++ {
				for i := uint64(0); i < idsPer; i++ {
					if err := w.StageSample(first+i, seq, int64(seq), float64(seq)); err != nil {
						t.Error(err)
						return
					}
				}
				if err := w.Commit(); err != nil {
					t.Error(err)
					return
				}
				if rnd.Intn(2) == 0 {
					continue
				}
				fm := make([]FlushMark, idsPer)
				for i := range fm {
					fm[i] = FlushMark{ID: first + uint64(i), Seq: seq}
				}
				if err := w.LogFlushMarks(fm); err != nil {
					t.Error(err)
					return
				}
				marks[wi] = seq
				time.Sleep(time.Duration(rnd.Intn(200)) * time.Microsecond) // let a purge see the round flushed
			}
		}(wi)
	}
	wg.Wait()
	close(done)
	if err := <-purgeErr; err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	replay, err := recoverLogged(w2)
	if err != nil {
		t.Fatal(err)
	}
	got := map[uint64][]uint64{}
	for _, e := range replay {
		got[e.id] = append(got[e.id], e.seq)
	}
	for wi, mark := range marks {
		var want []uint64
		for seq := mark + 1; seq <= rounds; seq++ {
			want = append(want, seq)
		}
		for id := uint64(wi*idsPer + 1); id <= uint64((wi+1)*idsPer); id++ {
			if !reflect.DeepEqual(got[id], want) {
				t.Fatalf("series %d (mark %d): recovered seqs %v, want %v", id, mark, got[id], want)
			}
		}
	}
}

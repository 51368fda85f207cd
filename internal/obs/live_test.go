package obs

import (
	"sync"
	"testing"
	"time"
)

func TestLiveSinkStatusTracksRun(t *testing.T) {
	s := NewLiveSink(16)
	run := Run{Tool: "test", Seed: 7}
	s.Emit(Event{Seq: 1, Type: ERunStart, Run: &run})
	s.Emit(Event{Seq: 2, Type: EFigureStart, Name: "5a"})
	s.Emit(Event{Seq: 3, Type: ESweepStart, N: 40, Points: 4})
	s.Emit(Event{Seq: 4, Type: EPhaseStart, Phase: "phase1", Engine: "parallel", Rule: "def2b"})
	s.Emit(Event{Seq: 5, Type: ERound, Phase: "phase1", Round: 3, Changed: 12})

	st := s.Status()
	if st.Run == nil || st.Run.Tool != "test" {
		t.Fatalf("run manifest not captured: %+v", st.Run)
	}
	if st.Figure != "5a" || st.Phase != "phase1" || st.Engine != "parallel" || st.Rule != "def2b" {
		t.Fatalf("in-flight position wrong: %+v", st)
	}
	if st.Round != 3 || st.Changed != 12 {
		t.Fatalf("round tracking wrong: round=%d changed=%d", st.Round, st.Changed)
	}
	if st.SweepTotal != 40 || st.SweepDone != 0 {
		t.Fatalf("sweep progress wrong: %d/%d", st.SweepDone, st.SweepTotal)
	}
	if st.Seq != 5 || st.Events != 5 {
		t.Fatalf("seq=%d events=%d, want 5 and 5", st.Seq, st.Events)
	}

	s.Emit(Event{Seq: 6, Type: EPhaseEnd, Phase: "phase1", Rounds: 9})
	s.Emit(Event{Seq: 7, Type: ESweepCell, X: 5, Rep: 0})
	s.Emit(Event{Seq: 8, Type: ESweepCell, X: 5, Rep: 1, Err: "boom"})
	s.Emit(Event{Seq: 9, Type: ESweepPoint, X: 5, N: 2})
	s.Emit(Event{Seq: 10, Type: ERunEnd})

	st = s.Status()
	if st.Phase != "" || st.LastRounds != 9 {
		t.Fatalf("phase close not tracked: %+v", st)
	}
	if st.SweepDone != 2 || st.SweepPoints != 1 {
		t.Fatalf("sweep counts wrong: done=%d points=%d", st.SweepDone, st.SweepPoints)
	}
	if st.Errors != 1 || st.LastErr != "boom" {
		t.Fatalf("error tracking wrong: %d %q", st.Errors, st.LastErr)
	}
	if !st.Done {
		t.Fatal("run_end not reflected")
	}
	if st.Counts[ESweepCell] != 2 || st.Counts[ERound] != 1 {
		t.Fatalf("type counts wrong: %v", st.Counts)
	}
}

func TestLiveSinkRingWraps(t *testing.T) {
	s := NewLiveSink(4)
	for i := 1; i <= 10; i++ {
		s.Emit(Event{Seq: int64(i), Type: ESpan})
	}
	recent := s.Recent(100)
	if len(recent) != 4 {
		t.Fatalf("recent length = %d, want ring size 4", len(recent))
	}
	for i, e := range recent {
		if want := int64(7 + i); e.Seq != want {
			t.Fatalf("recent[%d].Seq = %d, want %d (oldest first)", i, e.Seq, want)
		}
	}
	if got := s.Recent(2); len(got) != 2 || got[1].Seq != 10 {
		t.Fatalf("Recent(2) = %+v, want the last two", got)
	}
	if s.Recent(0) != nil {
		t.Fatal("Recent(0) should be nil")
	}
}

// TestLiveSinkRingWrapsUnderConcurrentWriters hammers the ring from
// several writers while readers poll Recent and Status. Run with -race;
// the assertions only pin what survives interleaving: the ring stays
// full once wrapped, every slot holds a real event, and no reader ever
// observes a torn slot (zero Seq).
func TestLiveSinkRingWrapsUnderConcurrentWriters(t *testing.T) {
	const (
		ringSize  = 8
		writers   = 4
		perWriter = 500
	)
	s := NewLiveSink(ringSize)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, e := range s.Recent(ringSize) {
					if e.Seq == 0 {
						t.Error("reader observed a torn ring slot")
						return
					}
				}
				_ = s.Status()
			}
		}()
	}
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				s.Emit(Event{Seq: int64(w*perWriter + i + 1), Type: ERound, Round: i})
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	wg.Wait()

	recent := s.Recent(100)
	if len(recent) != ringSize {
		t.Fatalf("ring holds %d events after wrap, want %d", len(recent), ringSize)
	}
	for i, e := range recent {
		if e.Seq == 0 || e.Type != ERound {
			t.Fatalf("recent[%d] = %+v, want a written round event", i, e)
		}
	}
	if st := s.Status(); st.Events != int64(writers*perWriter) {
		t.Fatalf("status counted %d events, want %d", st.Events, writers*perWriter)
	}
}

// TestLiveSinkFlushDrainsSubscribers checks the Flusher contract: Flush
// returns once subscriber buffers empty, and gives up after the bounded
// wait when a consumer is stuck rather than wedging the caller.
func TestLiveSinkFlushDrainsSubscribers(t *testing.T) {
	s := NewLiveSink(8)
	id, ch := s.Subscribe(8)
	defer s.Unsubscribe(id)
	for i := 1; i <= 5; i++ {
		s.Emit(Event{Seq: int64(i), Type: ERound})
	}

	// A slow consumer drains while Flush waits.
	go func() {
		for i := 0; i < 5; i++ {
			time.Sleep(2 * time.Millisecond)
			<-ch
		}
	}()
	start := time.Now()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(ch) != 0 {
		t.Fatalf("Flush returned with %d events still buffered", len(ch))
	}
	if time.Since(start) > liveFlushWait {
		t.Fatalf("Flush took %v, longer than the bound %v", time.Since(start), liveFlushWait)
	}

	// A stuck consumer: Flush must return after the bounded wait, not hang.
	old := liveFlushWait
	liveFlushWait = 20 * time.Millisecond
	defer func() { liveFlushWait = old }()
	for i := 6; i <= 10; i++ {
		s.Emit(Event{Seq: int64(i), Type: ERound})
	}
	start = time.Now()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond || elapsed > 5*time.Second {
		t.Fatalf("Flush with stuck consumer returned after %v, want ~the %v bound", elapsed, liveFlushWait)
	}
	if len(ch) == 0 {
		t.Fatal("stuck consumer should still have buffered events")
	}
}

// TestLiveSinkSubscribe pins the sink's wiring onto its Hub: emitted
// events reach subscribers, overflow is dropped and counted in Status,
// Close ends every tail, and a tail subscribing after Close — an
// /eventz handler racing the end of a run — gets a closed channel
// instead of waiting forever. The fan-out itself is pinned by TestHub.
func TestLiveSinkSubscribe(t *testing.T) {
	s := NewLiveSink(4)
	id, ch := s.Subscribe(2)
	s.Emit(Event{Seq: 1, Type: ERound})
	if e := <-ch; e.Seq != 1 {
		t.Fatalf("subscriber got %+v", e)
	}

	// Overflow the buffer: emits must not block, drops are counted.
	for i := 2; i <= 6; i++ {
		s.Emit(Event{Seq: int64(i), Type: ERound})
	}
	if st := s.Status(); st.Dropped != 3 || s.SubscriberDropped(id) != 3 {
		t.Fatalf("Status dropped = %d, subscriber dropped %d; want 3 and 3", st.Dropped, s.SubscriberDropped(id))
	}
	// Unsubscribe ends that tail alone: its channel closes once drained.
	other, och := s.Subscribe(1)
	s.Unsubscribe(other)
	for range och {
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for range ch { // drain the buffered events until the close is visible
	}
	_, late := s.Subscribe(1)
	select {
	case _, ok := <-late:
		if ok {
			t.Fatal("subscriber after Close received an event")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscriber after Close never saw its channel close")
	}
}

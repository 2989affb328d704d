package comm

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/tensor"
)

// TestMain fails the package if any test leaves a goroutine behind: after
// the tests, the goroutine count must return to its baseline within 2 s,
// or every stack is printed and the run fails.
func TestMain(m *testing.M) {
	baseline := runtime.NumGoroutine()
	code := m.Run()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(os.Stderr, "leaked goroutines: %d at start, %d after the tests\n%s", baseline, n, buf)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func TestSendThenRecv(t *testing.T) {
	r := NewRouter()
	tag := Tag{Kind: Act, Micro: 0, Stage: 1, Src: 0, Dst: 1}
	payload := tensor.Ones(2, 2)
	r.Send(tag, payload)
	got := r.Recv(tag)
	if got != payload {
		t.Fatal("payload identity lost")
	}
	st := r.Stats()
	if st.Messages != 1 || st.Bytes != 16 {
		t.Fatalf("stats %+v", st)
	}
	if st.PrefetchHits != 1 || st.RecvWaits != 0 {
		t.Fatalf("already-delivered recv must count as prefetch hit: %+v", st)
	}
}

func TestRecvBlocksUntilSend(t *testing.T) {
	r := NewRouter()
	tag := Tag{Kind: Grad, Micro: 3, Stage: 2, Src: 1, Dst: 0}
	done := make(chan *tensor.Tensor)
	go func() { done <- r.Recv(tag) }()
	time.Sleep(20 * time.Millisecond) // give the receiver time to block
	payload := tensor.Ones(1)
	r.Send(tag, payload)
	if got := <-done; got != payload {
		t.Fatal("wrong payload")
	}
	st := r.Stats()
	if st.RecvWaits+st.PrefetchHits != 1 {
		t.Fatalf("recv not counted: %+v", st)
	}
	if st.RecvWaits != 1 {
		t.Logf("note: recv won the race and counted as prefetch hit")
	}
}

func TestDuplicateSendPanics(t *testing.T) {
	r := NewRouter()
	tag := Tag{Kind: Act, Micro: 0, Stage: 0, Src: 0, Dst: 1}
	r.Send(tag, tensor.Ones(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Send(tag, tensor.Ones(1))
}

// tryRecv returns the payload if already delivered, without waiting: the
// probe that checks what sits in a box.
func (r *Router) tryRecv(t Tag) (*tensor.Tensor, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	select {
	case p := <-r.box(t):
		return p, true
	default:
		return nil, false
	}
}

func TestTryRecv(t *testing.T) {
	r := NewRouter()
	tag := Tag{Kind: Act, Micro: 1, Stage: 1, Src: 0, Dst: 1}
	if _, ok := r.tryRecv(tag); ok {
		t.Fatal("tryRecv on empty box")
	}
	r.Send(tag, tensor.Ones(1))
	if _, ok := r.tryRecv(tag); !ok {
		t.Fatal("tryRecv missed delivered payload")
	}
}

func TestResetDetectsUndelivered(t *testing.T) {
	r := NewRouter()
	r.Send(Tag{Kind: Act, Micro: 0, Stage: 0, Src: 0, Dst: 1}, tensor.Ones(1))
	if err := r.Reset(); err == nil {
		t.Fatal("reset must flag undelivered messages")
	}
	r2 := NewRouter()
	tag := Tag{Kind: Act, Micro: 0, Stage: 0, Src: 0, Dst: 1}
	r2.Send(tag, tensor.Ones(1))
	r2.Recv(tag)
	if err := r2.Reset(); err != nil {
		t.Fatal(err)
	}
	// After reset the same tag can be reused.
	r2.Send(tag, tensor.Ones(1))
	r2.Recv(tag)
}

func TestCloseCatchesUseAfter(t *testing.T) {
	r := NewRouter()
	r.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on use after close")
		}
	}()
	r.Send(Tag{Kind: Act}, tensor.Ones(1))
}

func TestConcurrentManyWorkers(t *testing.T) {
	// A mesh of workers streaming messages concurrently must not race
	// (run under -race in CI) nor lose messages.
	r := NewRouter()
	const n = 8
	var wg sync.WaitGroup
	for src := 0; src < n; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for dst := 0; dst < n; dst++ {
				if dst == src {
					continue
				}
				r.Send(Tag{Kind: Act, Micro: int32(src), Stage: int32(dst), Src: int32(src), Dst: int32(dst)}, tensor.Ones(4))
			}
		}(src)
	}
	for dst := 0; dst < n; dst++ {
		wg.Add(1)
		go func(dst int) {
			defer wg.Done()
			for src := 0; src < n; src++ {
				if dst == src {
					continue
				}
				r.Recv(Tag{Kind: Act, Micro: int32(src), Stage: int32(dst), Src: int32(src), Dst: int32(dst)})
			}
		}(dst)
	}
	wg.Wait()
	if got := r.Stats().Messages; got != n*(n-1) {
		t.Fatalf("messages %d want %d", got, n*(n-1))
	}
	if err := r.Reset(); err != nil {
		t.Fatal(err)
	}
}

func TestDiscardDropsInFlight(t *testing.T) {
	r := NewRouter()
	r.Send(Tag{Kind: Act, Micro: 0, Stage: 1, Src: 0, Dst: 1}, tensor.Ones(2, 2))
	r.Send(Tag{Kind: Grad, Micro: 1, Stage: 1, Src: 1, Dst: 0}, tensor.Ones(2, 2))
	if n := r.Discard(); n != 2 {
		t.Fatalf("Discard dropped %d payloads, want 2", n)
	}
	if err := r.Reset(); err != nil {
		t.Fatalf("router not clean after Discard: %v", err)
	}
	// Tags are reusable immediately — the aborted iteration's sends are gone.
	tag := Tag{Kind: Act, Micro: 0, Stage: 1, Src: 0, Dst: 1}
	r.Send(tag, tensor.Ones(2, 2))
	if _, ok := r.tryRecv(tag); !ok {
		t.Fatal("router unusable after Discard")
	}
}

// TestTagReuseAcrossIterations: a schedule repeats its tags every
// iteration. Reset keeps the mailboxes, so from the second iteration on a
// send/receive/reset round allocates nothing, and the counters keep
// running across resets.
func TestTagReuseAcrossIterations(t *testing.T) {
	r := NewRouter()
	tags := []Tag{
		{Kind: Act, Micro: 0, Stage: 1, Src: 0, Dst: 1},
		{Kind: Grad, Micro: 0, Stage: 0, Src: 1, Dst: 0},
		{Kind: Act, Micro: 1, Stage: 1, Src: 0, Dst: 1},
	}
	payload := tensor.Ones(2)
	iteration := func() {
		for _, tag := range tags {
			r.Send(tag, payload)
		}
		for _, tag := range tags {
			if r.Recv(tag) != payload {
				t.Fatal("payload identity lost")
			}
		}
		if err := r.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		iteration()
	}
	if st := r.Stats(); st.Messages != 9 || st.PrefetchHits != 9 || st.Bytes != 9*8 {
		t.Fatalf("stats after three iterations: %+v", st)
	}
	if n := testing.AllocsPerRun(10, iteration); n != 0 {
		t.Fatalf("a repeated iteration allocates %.0f objects: mailboxes are being rebuilt", n)
	}
	if got, want := tags[1].String(), "grad m0 s0 1->0"; got != want {
		t.Fatalf("tag renders as %q, want %q", got, want)
	}
	if got, want := tags[0].String(), "act m0 s1 0->1"; got != want {
		t.Fatalf("tag renders as %q, want %q", got, want)
	}
}

// TestDiscardAfterAbort: an aborted iteration leaves one receiver canceled
// mid-wait and one payload undelivered. Discard drops the payload, and the
// same tags then carry a full iteration that Reset accepts.
func TestDiscardAfterAbort(t *testing.T) {
	r := NewRouter()
	sent := Tag{Kind: Act, Micro: 0, Stage: 1, Src: 0, Dst: 1}
	awaited := Tag{Kind: Grad, Micro: 0, Stage: 0, Src: 1, Dst: 0}
	r.Send(sent, tensor.Ones(2))
	done := make(chan struct{})
	got := make(chan bool)
	go func() {
		_, ok := r.RecvAbort(awaited, done)
		got <- ok
	}()
	close(done)
	if <-got {
		t.Fatal("RecvAbort returned a payload nobody sent")
	}
	if n := r.Discard(); n != 1 {
		t.Fatalf("Discard dropped %d payloads, want the 1 undelivered", n)
	}
	if n := r.Discard(); n != 0 {
		t.Fatalf("second Discard dropped %d", n)
	}
	for _, tag := range []Tag{sent, awaited} {
		p := tensor.Ones(2)
		r.Send(tag, p)
		if q, ok := r.RecvAbort(tag, nil); !ok || q != p {
			t.Fatalf("tag %v unusable after Discard", tag)
		}
	}
	if err := r.Reset(); err != nil {
		t.Fatalf("router not clean after the retried iteration: %v", err)
	}
}

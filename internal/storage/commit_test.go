package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/obs"
)

// chainOnly hides every optional interface of the store it embeds, so
// Commit through it runs the chain of conditional puts.
type chainOnly struct{ Store }

// committers returns every native Committer under a name.
func committers(t *testing.T) map[string]Store {
	t.Helper()
	remote, _ := newHTTPPair(t)
	srv := httptest.NewServer(NewServer(openDurable(t, t.TempDir())))
	t.Cleanup(srv.Close)
	return map[string]Store{
		"mem":          NewMemStore(Latency{}),
		"file":         openDurable(t, t.TempDir()),
		"http":         remote,
		"http-file":    NewHTTPStore(srv.URL),
		"instrumented": Instrument(NewMemStore(Latency{}), obs.NewRegistry()),
	}
}

func put(name, data string) Object { return Object{Name: name, Data: []byte(data)} }
func del(name string) Object       { return Object{Name: name, Delete: true} }

// snapshot reads a directory's version and every object in it.
func snapshot(t *testing.T, s Store, dir string) (uint64, map[string]string) {
	t.Helper()
	ctx := context.Background()
	v, err := s.Version(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	names, err := s.List(ctx, dir)
	if err != nil && !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
	objs := make(map[string]string, len(names))
	for _, n := range names {
		data, err := s.Get(ctx, dir, n)
		if err != nil {
			t.Fatal(err)
		}
		objs[n] = string(data)
	}
	return v, objs
}

func sameObjects(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || v != w {
			return false
		}
	}
	return true
}

// TestCommitContract is the conformance contract of a native Commit: all of
// a commit or none of it, PutFenced's checks in PutFenced's order, and a
// rejected commit changes no object, no version and no fence watermark.
func TestCommitContract(t *testing.T) {
	for name, s := range committers(t) {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			if _, ok := s.(Committer); !ok {
				t.Fatalf("%T is not a Committer", s)
			}
			mustCommit := func(objs []Object, ifVersion, epoch uint64) uint64 {
				t.Helper()
				v, err := Commit(ctx, s, "d", objs, ifVersion, epoch)
				if err != nil {
					t.Fatalf("commit at %d epoch %d: %v", ifVersion, epoch, err)
				}
				if v != ifVersion+1 {
					t.Fatalf("commit at %d returned version %d, want one bump", ifVersion, v)
				}
				if cur, _ := s.Version(ctx, "d"); cur != v {
					t.Fatalf("store at version %d, commit returned %d", cur, v)
				}
				return v
			}
			// rejected asserts the error and that nothing at all moved.
			rejected := func(want error, objs []Object, ifVersion, epoch uint64) {
				t.Helper()
				v0, objs0 := snapshot(t, s, "d")
				if _, err := Commit(ctx, s, "d", objs, ifVersion, epoch); !errors.Is(err, want) {
					t.Fatalf("commit at %d epoch %d: %v, want %v", ifVersion, epoch, err, want)
				}
				v1, objs1 := snapshot(t, s, "d")
				if v1 != v0 || !sameObjects(objs0, objs1) {
					t.Fatalf("rejected commit changed the directory: %d %v -> %d %v", v0, objs0, v1, objs1)
				}
			}

			// Creating a directory: version 0 → 1 with both objects in place.
			rejected(ErrVersionConflict, []Object{put("a", "1")}, 3, 0)
			v := mustCommit([]Object{put("a", "1"), put("b", "1")}, 0, 2)
			if _, objs := snapshot(t, s, "d"); !sameObjects(objs, map[string]string{"a": "1", "b": "1"}) {
				t.Fatalf("after create: %v", objs)
			}

			// A conflicting commit with a HIGHER epoch is rejected whole, and
			// does not raise the watermark: epoch 2 still writes afterwards.
			rejected(ErrVersionConflict, []Object{put("a", "x"), put("c", "x"), del("b")}, v+7, 9)
			v = mustCommit([]Object{put("a", "2"), put("b", "2")}, v, 2)

			// Epoch 5 raises the watermark; epoch 2 is then fenced, whatever
			// version it names — the fence beats the conflict.
			v = mustCommit([]Object{put("a", "3"), put("b", "3")}, v, 5)
			rejected(ErrFenced, []Object{put("a", "x"), del("b")}, v, 2)
			rejected(ErrFenced, []Object{put("a", "x"), del("b")}, v+7, 2)

			// Epoch 0 carries no fence: not checked, watermark not lowered.
			v = mustCommit([]Object{put("a", "4"), put("b", "4")}, v, 0)
			rejected(ErrFenced, []Object{put("a", "x")}, v, 4)

			// Deleting a missing object is not an error; deletes and puts of
			// one commit land together.
			v = mustCommit([]Object{del("nope"), del("a"), put("c", "5")}, v, 5)
			if _, objs := snapshot(t, s, "d"); !sameObjects(objs, map[string]string{"b": "4", "c": "5"}) {
				t.Fatalf("after delete commit: %v", objs)
			}

			// A commit must write something.
			v0, objs0 := snapshot(t, s, "d")
			for _, objs := range [][]Object{nil, {del("b")}} {
				if _, err := Commit(ctx, s, "d", objs, v, 5); err == nil {
					t.Fatalf("commit of %v accepted", objs)
				}
			}
			if v1, objs1 := snapshot(t, s, "d"); v1 != v0 || !sameObjects(objs0, objs1) {
				t.Fatal("commit without a put changed the directory")
			}
		})
	}
}

// TestCommitAccounting pins what Stats counts for a commit: one put (round
// trip), every payload byte, and each object actually removed.
func TestCommitAccounting(t *testing.T) {
	ctx := context.Background()
	mem := NewMemStore(Latency{})
	v, err := mem.Commit(ctx, "d", []Object{put("a", "12345"), put("b", "123")}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := mem.Stats()
	if _, err := mem.Commit(ctx, "d", []Object{put("c", "12"), del("a"), del("nope")}, v, 0); err != nil {
		t.Fatal(err)
	}
	after := mem.Stats()
	if got := after.Puts - before.Puts; got != 1 {
		t.Errorf("Puts moved by %d, want 1", got)
	}
	if got := after.BytesIn - before.BytesIn; got != 2 {
		t.Errorf("BytesIn moved by %d, want 2", got)
	}
	if got := after.Deletes - before.Deletes; got != 1 {
		t.Errorf("Deletes moved by %d, want 1 (the missing object is not counted)", got)
	}
}

// TestCommitIsOneRoundTrip: the injected write delay is paid once per commit
// however many objects it carries.
func TestCommitIsOneRoundTrip(t *testing.T) {
	const delay = 30 * time.Millisecond
	mem := NewMemStore(Latency{Put: delay})
	objs := make([]Object, 10)
	for i := range objs {
		objs[i] = put(fmt.Sprintf("p%d", i), "x")
	}
	t0 := time.Now()
	if _, err := Commit(context.Background(), mem, "d", objs, 0, 1); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took < delay || took > 5*delay {
		t.Fatalf("10-object commit took %v, want about one %v round trip", took, delay)
	}
}

// TestCommitIsAtomicUnderRace: writers commit generations of two objects;
// a reader that fetched both at one directory version must see one
// generation, the directory ends at one version per successful commit, and a
// poller is never woken more often than that.
func TestCommitIsAtomicUnderRace(t *testing.T) {
	for name, s := range committers(t) {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			const writers, perWriter = 3, 40

			var commits atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWriter; {
						v, err := s.Version(ctx, "d")
						if err != nil {
							t.Error(err)
							return
						}
						gen := fmt.Sprintf("w%d-%d", w, i)
						_, err = Commit(ctx, s, "d", []Object{put("x", gen), put("y", gen)}, v, 0)
						if errors.Is(err, ErrVersionConflict) {
							continue // another writer got there first
						}
						if err != nil {
							t.Error(err)
							return
						}
						commits.Add(1)
						i++
					}
				}(w)
			}

			stop := make(chan struct{})
			var readers sync.WaitGroup
			for r := 0; r < 2; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						x, vx, errX := s.GetVersioned(ctx, "d", "x")
						y, vy, errY := s.GetVersioned(ctx, "d", "y")
						if errX != nil || errY != nil {
							continue // directory not created yet
						}
						if vx == vy && !bytes.Equal(x, y) {
							t.Errorf("at version %d: x=%s y=%s", vx, x, y)
							return
						}
					}
				}()
			}

			wakes := make(chan int, 1)
			go func() {
				n, since := 0, uint64(0)
				for {
					v, err := s.Poll(ctx, "d", since)
					if err != nil {
						wakes <- n
						return
					}
					n, since = n+1, v
				}
			}()

			wg.Wait()
			close(stop)
			readers.Wait()
			total := commits.Load()
			if total != writers*perWriter {
				t.Fatalf("%d commits succeeded, want %d", total, writers*perWriter)
			}
			if v, _ := s.Version(ctx, "d"); v != uint64(total) {
				t.Fatalf("directory at version %d after %d commits", v, total)
			}
			cancel()
			if n := <-wakes; int64(n) > total {
				t.Fatalf("poller woke %d times for %d commits", n, total)
			}
		})
	}
}

// TestPollWakesOncePerCommit: one blocked poller, one two-object commit, one
// wake-up at the commit's version, and nothing further to wake for.
func TestPollWakesOncePerCommit(t *testing.T) {
	for name, s := range committers(t) {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			v, err := Commit(ctx, s, "d", []Object{put("a", "1")}, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			woke := make(chan uint64, 1)
			go func() {
				got, _ := s.Poll(ctx, "d", v)
				woke <- got
			}()
			time.Sleep(10 * time.Millisecond) // let the poller block
			if _, err := Commit(ctx, s, "d", []Object{put("a", "2"), put("b", "2"), del("c")}, v, 0); err != nil {
				t.Fatal(err)
			}
			select {
			case got := <-woke:
				if got != v+1 {
					t.Fatalf("poller woke at version %d, want %d", got, v+1)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("poller never woke")
			}
			short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
			defer cancel()
			if got, err := s.Poll(short, "d", v+1); err == nil {
				t.Fatalf("a second wake-up at version %d for one commit", got)
			}
		})
	}
}

// outcome classifies a commit's error for comparison across backends.
func outcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrFenced):
		return "fenced"
	case errors.Is(err, ErrVersionConflict):
		return "conflict"
	}
	return err.Error()
}

// TestCommitChainMatchesNative applies one seeded sequence of commits —
// puts, deletes, leading deletes, stale versions, fenced epochs — through a
// native Committer, through the chain over the same backend, and over HTTP
// into the durable store. Every step must succeed or be rejected alike, and
// the directories must end byte-identical.
func TestCommitChainMatchesNative(t *testing.T) {
	ctx := context.Background()
	srv := httptest.NewServer(NewServer(openDurable(t, t.TempDir())))
	t.Cleanup(srv.Close)
	type side struct {
		name string
		s    Store
		v    uint64
	}
	sides := []*side{
		{name: "native", s: NewMemStore(Latency{})},
		{name: "chain", s: chainOnly{NewMemStore(Latency{})}},
		{name: "http-file", s: NewHTTPStore(srv.URL)},
	}
	if _, ok := sides[1].s.(Committer); ok {
		t.Fatal("chainOnly still exposes Commit")
	}

	rng := rand.New(rand.NewSource(14))
	names := []string{"p0", "p1", "p2", "p3", "_index", "_key"}
	epoch := uint64(1)
	for step := 0; step < 200; step++ {
		var objs []Object
		for _, n := range rng.Perm(len(names))[:1+rng.Intn(len(names))] {
			if rng.Intn(4) == 0 {
				objs = append(objs, del(names[n]))
				continue
			}
			data := make([]byte, rng.Intn(64))
			rng.Read(data)
			objs = append(objs, Object{Name: names[n], Data: data})
		}
		objs = append(objs, put("_key", fmt.Sprintf("step-%d", step)))
		stale, useEpoch := rng.Intn(8) == 0, epoch
		switch rng.Intn(10) {
		case 0:
			epoch++
			useEpoch = epoch
		case 1:
			useEpoch = epoch - 1 // fenced once the watermark passed it (0 = unfenced)
		}
		var want string
		for i, sd := range sides {
			ifVersion := sd.v
			if stale {
				ifVersion += 1000
			}
			v, err := Commit(ctx, sd.s, "d", objs, ifVersion, useEpoch)
			if err == nil {
				sd.v = v
			}
			if i == 0 {
				want = outcome(err)
			} else if got := outcome(err); got != want {
				t.Fatalf("step %d: native answered %s, %s answered %s", step, want, sd.name, got)
			}
		}
	}
	_, want := snapshot(t, sides[0].s, "d")
	if len(want) == 0 {
		t.Fatal("the sequence left nothing behind")
	}
	for _, sd := range sides[1:] {
		if _, got := snapshot(t, sd.s, "d"); !sameObjects(want, got) {
			t.Fatalf("%s ended with different contents than native:\n%v\n%v", sd.name, got, want)
		}
		if cur, _ := sd.s.Version(ctx, "d"); cur != sd.v {
			t.Fatalf("%s: chain returned version %d, store is at %d", sd.name, sd.v, cur)
		}
	}
}

// TestCommitChainGuardsLeadingDelete: the chain never runs an unconditional
// delete ahead of a conditional write, so a stale writer whose commit leads
// with deletes destroys nothing.
func TestCommitChainGuardsLeadingDelete(t *testing.T) {
	ctx := context.Background()
	s := chainOnly{NewMemStore(Latency{})}
	v, err := Commit(ctx, s, "d", []Object{put("a", "1"), put("k", "1")}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Commit(ctx, s, "d", []Object{del("a"), put("k", "2")}, v+1, 0); !errors.Is(err, ErrVersionConflict) {
		t.Fatalf("stale leading-delete commit: %v", err)
	}
	if _, objs := snapshot(t, s, "d"); !sameObjects(objs, map[string]string{"a": "1", "k": "1"}) {
		t.Fatalf("stale commit destroyed objects: %v", objs)
	}
	if _, err := Commit(ctx, s, "d", []Object{del("a"), put("k", "2")}, v, 0); err != nil {
		t.Fatal(err)
	}
	if _, objs := snapshot(t, s, "d"); !sameObjects(objs, map[string]string{"k": "2"}) {
		t.Fatalf("after leading-delete commit: %v", objs)
	}
}

// TestInstrumentCommit: one op, one classified rejection per rejected
// commit, and no Commit on the decorator of a store that has none.
func TestInstrumentCommit(t *testing.T) {
	ctx := context.Background()
	r := obs.NewRegistry()
	st := Instrument(NewMemStore(Latency{}), r)
	v, err := Commit(ctx, st, "d", []Object{put("a", "1"), put("b", "1")}, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Commit(ctx, st, "d", []Object{put("a", "2")}, v+1, 3); !errors.Is(err, ErrVersionConflict) {
		t.Fatal(err)
	}
	if _, err := Commit(ctx, st, "d", []Object{put("a", "2")}, v, 2); !errors.Is(err, ErrFenced) {
		t.Fatal(err)
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	for _, want := range []string{
		`ibbe_store_ops_total{backend="mem",op="commit"} 3`,
		`ibbe_store_op_seconds_count{backend="mem",op="commit"} 3`,
		`ibbe_store_cas_conflicts_total{backend="mem"} 1`,
		`ibbe_store_fence_rejections_total{backend="mem"} 1`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("missing %q in exposition:\n%s", want, b.String())
		}
	}
	if strings.Contains(b.String(), `op="putfenced"`) {
		t.Error("a native commit was also counted as puts")
	}

	for _, inner := range []Store{NewFaultStore(NewMemStore(Latency{})), chainOnly{NewMemStore(Latency{})}} {
		if _, ok := Instrument(inner, r).(Committer); ok {
			t.Errorf("decorating %T invented a native Commit", inner)
		}
	}
	if _, ok := Store(NewFaultStore(NewMemStore(Latency{}))).(Committer); ok {
		t.Error("FaultStore forwards Commit; the torn-apply tests would stop exercising the chain")
	}
}

// TestServerRefusesOversizedBodies: an over-limit PUT or commit is answered
// 413 and leaves the directory and its version untouched — never a truncated
// object behind a 204.
func TestServerRefusesOversizedBodies(t *testing.T) {
	ctx := context.Background()
	mem := NewMemStore(Latency{})
	server := NewServer(mem)
	server.maxBody = 1 << 10
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)
	remote := NewHTTPStore(srv.URL)

	if err := remote.Put(ctx, "d", "small", bytes.Repeat([]byte{1}, 1<<10)); err != nil {
		t.Fatalf("a body at the limit: %v", err)
	}
	v0, objs0 := snapshot(t, mem, "d")
	big := bytes.Repeat([]byte{2}, 1<<10+1)

	for _, u := range []string{
		srv.URL + "/v1/obj/d/big",
		srv.URL + "/v1/obj/d/big?if-version=1&fence-epoch=1",
	} {
		req, err := http.NewRequest(http.MethodPut, u, bytes.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("PUT %s: status %d, want 413", u, resp.StatusCode)
		}
	}
	if _, err := remote.Commit(ctx, "d", []Object{put("small", "x"), {Name: "big", Data: big}}, v0, 1); err == nil ||
		!strings.Contains(err.Error(), "413") {
		t.Fatalf("oversized commit: %v, want a 413", err)
	}
	if v1, objs1 := snapshot(t, mem, "d"); v1 != v0 || !sameObjects(objs0, objs1) {
		t.Fatalf("an oversized request changed the directory: %d %v", v1, objs1)
	}
}

// TestServerRejectsMalformedCommits: every malformed commit is a 400 and
// changes nothing.
func TestServerRejectsMalformedCommits(t *testing.T) {
	mem := NewMemStore(Latency{})
	srv := httptest.NewServer(NewServer(mem))
	t.Cleanup(srv.Close)
	good := appendCommitBody(nil, []Object{put("a", "1")})
	for _, tc := range []struct {
		method, path string
		body         []byte
		want         int
	}{
		{http.MethodPost, "/v1/commit/d", good, http.StatusBadRequest},                // no if-version
		{http.MethodPost, "/v1/commit/d?if-version=x", good, http.StatusBadRequest},   // bad if-version
		{http.MethodPost, "/v1/commit/d?if-version=0&fence-epoch=-1", good, 400},      // bad epoch
		{http.MethodPost, "/v1/commit/?if-version=0", good, http.StatusBadRequest},    // no directory
		{http.MethodPut, "/v1/commit/d?if-version=0", good, 405},                      // wrong method
		{http.MethodPost, "/v1/commit/d?if-version=0", nil, http.StatusBadRequest},    // empty commit
		{http.MethodPost, "/v1/commit/d?if-version=0", good[:len(good)-1], 400},       // truncated data
		{http.MethodPost, "/v1/commit/d?if-version=0", []byte{7, 1, 'a'}, 400},        // unknown kind
		{http.MethodPost, "/v1/commit/d?if-version=0", []byte{0, 0, 0}, 400},          // empty name
		{http.MethodPost, "/v1/commit/d?if-version=0", []byte{1, 1, 'a'}, 400},        // only a delete
		{http.MethodPost, "/v1/commit/d?if-version=0", []byte{0, 0xff, 0xff, 1}, 400}, // length beyond body
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s body %v: status %d, want %d", tc.method, tc.path, tc.body, resp.StatusCode, tc.want)
		}
	}
	if v, _ := mem.Version(context.Background(), "d"); v != 0 {
		t.Fatalf("a malformed commit reached the store (version %d)", v)
	}
}

// FuzzCommitRequest feeds the server-side commit decoder arbitrary queries
// and bodies: it must never panic or hand out more bytes than it was given,
// and whatever it accepts must survive an encode → decode round trip.
func FuzzCommitRequest(f *testing.F) {
	body := appendCommitBody(nil, []Object{put("p0", "record"), del("p1"), put("_sealed_gk", "")})
	f.Add("if-version=3&fence-epoch=2", body)
	f.Add("if-version=0", body[:len(body)-3])
	f.Add("if-version=18446744073709551616", body)
	f.Add("if-version=1&fence-epoch=x", []byte{0, 1, 'a', 0})
	f.Add("if-version=1;", []byte{1, 1, 'a'})
	f.Add("if-version=1", []byte{0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1})
	f.Fuzz(func(t *testing.T, rawQuery string, body []byte) {
		objs, ifVersion, epoch, err := parseCommitRequest(rawQuery, body)
		if err != nil {
			return
		}
		payload := 0
		for _, o := range objs {
			if o.Name == "" {
				t.Fatal("accepted an object without a name")
			}
			payload += len(o.Name) + len(o.Data)
		}
		if payload > len(body) {
			t.Fatalf("decoded %d bytes out of a %d-byte body", payload, len(body))
		}
		again := appendCommitBody(nil, objs)
		query := fmt.Sprintf("if-version=%d&fence-epoch=%d", ifVersion, epoch)
		objs2, ifVersion2, epoch2, err := parseCommitRequest(query, again)
		if err != nil {
			t.Fatalf("re-decoding an accepted commit: %v", err)
		}
		if ifVersion2 != ifVersion || epoch2 != epoch || len(objs2) != len(objs) {
			t.Fatalf("round trip changed the request: %d/%d/%d objects vs %d/%d/%d", ifVersion, epoch, len(objs), ifVersion2, epoch2, len(objs2))
		}
		for i := range objs {
			if objs[i].Name != objs2[i].Name || objs[i].Delete != objs2[i].Delete || !bytes.Equal(objs[i].Data, objs2[i].Data) {
				t.Fatalf("round trip changed object %d: %+v vs %+v", i, objs[i], objs2[i])
			}
		}
	})
}

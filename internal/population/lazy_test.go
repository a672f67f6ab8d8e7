package population

import (
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"testing"

	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// lazy_test.go: the sharded lazy engine's equivalence properties. The
// k-way shard reduction must replay the eager engine's merge order
// exactly, at any shard size and any worker count; lazy materialization
// must leave never-sending users cold; and ResumeDisclosure must
// round-trip the sharded engine state at arbitrary kill points.

// refBuilder returns a pure per-user arrivals function and builder over
// the refUsers population: building user u twice yields identically
// seeded stacks, and the arrivals are the built user's own message and
// cover sources, drawn in refUsers' Split order.
func refBuilder(tb testing.TB, recipients int, cover, churn bool) (Arrivals, Builder) {
	tb.Helper()
	// sources returns user u's message and cover sources and its master
	// stream, positioned at the profile split.
	sources := func(u int) (msgs, cov traffic.Source, master *xrand.Rand, err error) {
		master = xrand.New(uint64(3000 + u))
		rate := 5 + float64(u%3)*20
		if msgs, err = traffic.NewPoisson(rate, master.Split()); err != nil {
			return nil, nil, nil, err
		}
		if cover {
			if cov, err = traffic.NewPoisson(rate, master.Split()); err != nil {
				return nil, nil, nil, err
			}
		}
		return msgs, cov, master, nil
	}
	arrivals := func(u int) (traffic.Source, traffic.Source, error) {
		msgs, cov, _, err := sources(u)
		return msgs, cov, err
	}
	build := func(u int) (User, error) {
		msgs, cov, master, err := sources(u)
		if err != nil {
			return User{}, err
		}
		prng := master.Split()
		prof, err := NewProfile(recipients, 3, 0.7, prng)
		if err != nil {
			return User{}, err
		}
		usr := User{Class: u % 3, Messages: msgs, Cover: cov, Profile: prof, RNG: prng}
		if churn {
			sched, err := traffic.NewOnOffSchedule(0.05, 0.05, xrand.New(uint64(7000+u)))
			if err != nil {
				return User{}, err
			}
			usr.Presence = sched
		}
		return usr, nil
	}
	return arrivals, build
}

// refLazyEngine builds a lazy engine over the refBuilder population.
func refLazyEngine(tb testing.TB, n, recipients, shardSize int, cover, churn bool) *Engine {
	tb.Helper()
	arrivals, build := refBuilder(tb, recipients, cover, churn)
	e, err := newLazyEngine(n, recipients, shardSize, arrivals, build)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// collectRounds drains n rounds into deep copies.
func collectRounds(t *testing.T, e *Engine, n, batch int) []Round {
	t.Helper()
	out := make([]Round, n)
	var r Round
	for i := range out {
		if err := e.NextRound(batch, &r); err != nil {
			t.Fatal(err)
		}
		out[i] = Round{
			Users: append([]int32(nil), r.Users...),
			Rcpts: append([]int32(nil), r.Rcpts...),
			Dummy: append([]bool(nil), r.Dummy...),
			Times: append([]float64(nil), r.Times...),
		}
	}
	return out
}

// TestLazyEngineMatchesEager: a lazily materialized engine emits the
// byte-identical round stream of an eager engine over the same users.
func TestLazyEngineMatchesEager(t *testing.T) {
	const n, recipients = 60, 80
	eager, err := NewEngine(refUsers(t, n, recipients, true, false), recipients)
	if err != nil {
		t.Fatal(err)
	}
	lazy := refLazyEngine(t, n, recipients, defaultShardSize, true, false)
	want := collectRounds(t, eager, 300, 8)
	got := collectRounds(t, lazy, 300, 8)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("lazy engine round stream differs from eager engine")
	}
}

// TestLazyEngineShardInvariance: the round stream is invariant to the
// shard partition — a 7-user shard reduction over many shards replays a
// single-shard run exactly (slab horizons may differ across partitions,
// the merged (time, user) order may not).
func TestLazyEngineShardInvariance(t *testing.T) {
	const n, recipients = 50, 80
	run := func(shardSize int) []Round {
		return collectRounds(t, refLazyEngine(t, n, recipients, shardSize, true, true), 300, 8)
	}
	want := run(1 << 20) // single shard
	for _, ss := range []int{1, 7, 16} {
		if got := run(ss); !reflect.DeepEqual(got, want) {
			t.Fatalf("shardSize=%d: round stream differs from single-shard run", ss)
		}
	}
}

// TestLazyEngineWorkerInvariance: per-shard generation parallelism never
// changes the stream.
func TestLazyEngineWorkerInvariance(t *testing.T) {
	const n, recipients = 64, 80
	run := func(workers int) []Round {
		e := refLazyEngine(t, n, recipients, 8, true, false)
		e.SetWorkers(workers)
		return collectRounds(t, e, 200, 8)
	}
	want := run(1)
	for _, w := range []int{2, 4, 0} {
		if got := run(w); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: round stream differs", w)
		}
	}
}

// TestLazyEngineColdUsers: users whose first arrival lies beyond the
// observed horizon hold no source state. A population where most users
// send at a vanishing rate stays mostly cold through a short run.
func TestLazyEngineColdUsers(t *testing.T) {
	const n, recipients = 2000, 40
	const hot = 8
	// sources returns user u's message source and its master stream,
	// positioned at the profile split.
	sources := func(u int) (traffic.Source, *xrand.Rand, error) {
		master := xrand.New(uint64(5000 + u))
		rate := 1e-6 // one arrival per ~11 simulated days
		if u%(n/hot) == 0 {
			rate = 50
		}
		msgs, err := traffic.NewPoisson(rate, master.Split())
		return msgs, master, err
	}
	arrivals := func(u int) (traffic.Source, traffic.Source, error) {
		msgs, _, err := sources(u)
		return msgs, nil, err
	}
	build := func(u int) (User, error) {
		msgs, master, err := sources(u)
		if err != nil {
			return User{}, err
		}
		prng := master.Split()
		prof, err := NewProfile(recipients, 3, 0.7, prng)
		if err != nil {
			return User{}, err
		}
		return User{Messages: msgs, Profile: prof, RNG: prng}, nil
	}
	e, err := NewLazyEngine(n, recipients, arrivals, build)
	if err != nil {
		t.Fatal(err)
	}
	var r Round
	for i := 0; i < 100; i++ {
		if err := e.NextRound(8, &r); err != nil {
			t.Fatal(err)
		}
	}
	if w := e.WarmUsers(); w > n/10 {
		t.Fatalf("%d of %d users warm after a short run; lazy materialization is not lazy", w, n)
	} else if w == 0 {
		t.Fatal("no users warm despite emitted rounds")
	}
}

// TestLazyEngineBuildsOnlySenders counts full builds: construction
// reads only the arrivals function and builds no user at all, and after
// a disclosure run exactly the targets and the users whose frontier
// generation advanced (every user that sent) have been built, each
// once. With about 4096 events per slab over 20000 users, most of the
// population stays cold.
func TestLazyEngineBuildsOnlySenders(t *testing.T) {
	const n, recipients, shardSize = 20000, 80, 512
	arrivals, build := refBuilder(t, recipients, true, false)
	// Each user belongs to one shard, so the parallel generation writes
	// distinct elements.
	builds := make([]int, n)
	counting := func(u int) (User, error) {
		builds[u]++
		return build(u)
	}
	e, err := newLazyEngine(n, recipients, shardSize, arrivals, counting)
	if err != nil {
		t.Fatal(err)
	}
	for u, b := range builds {
		if b != 0 {
			t.Fatalf("constructor built user %d %d times, want no full builds", u, b)
		}
	}
	first := append([]float64(nil), e.nextT...)
	targets := []int{5, 12345}
	run, err := e.StartDisclosure(DisclosureConfig{Targets: targets, MaxRounds: 1000, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Step(600); err != nil {
		t.Fatal(err)
	}
	built := 0
	for u, b := range builds {
		want := 0
		if e.nextT[u] != first[u] || slices.Contains(targets, u) {
			want = 1
		}
		if b != want {
			t.Fatalf("user %d built %d times, want %d (sent: %v)", u, b, want, e.nextT[u] != first[u])
		}
		built += b
	}
	if built != e.WarmUsers() {
		t.Fatalf("%d builds but %d warm users", built, e.WarmUsers())
	}
	if built <= len(targets) || built > n/2 {
		t.Fatalf("%d of %d users built after 600 rounds; want senders only, most users cold", built, n)
	}
}

// TestLazyEngineAccessorsWarm: the read-only accessors materialize cold
// users on demand and agree with the builder's output.
func TestLazyEngineAccessorsWarm(t *testing.T) {
	const n, recipients = 40, 80
	arrivals, build := refBuilder(t, recipients, false, true)
	e, err := NewLazyEngine(n, recipients, arrivals, build)
	if err != nil {
		t.Fatal(err)
	}
	u := 17
	want, err := build(u)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := e.Class(u); err != nil || got != want.Class {
		t.Fatalf("Class(%d) = %d, %v; want %d", u, got, err, want.Class)
	}
	if got, err := e.ContactsOf(u); err != nil || !reflect.DeepEqual(got, want.Profile.Contacts()) {
		t.Fatalf("ContactsOf(%d) = %v, %v; want %v", u, got, err, want.Profile.Contacts())
	}
	if got, err := e.PresenceOf(u); err != nil || got == nil {
		t.Fatalf("PresenceOf(%d) = %v, %v; want a schedule for a churned population", u, got, err)
	}
	if e.WarmUsers() != 1 {
		t.Fatalf("accessor warmed %d users, want exactly 1", e.WarmUsers())
	}
}

// TestLazyEngineBuilderError: a failing arrivals function fails the
// constructor; a failing or inconsistent full build — which the
// constructor never runs — surfaces as an error from NextRound or the
// disclosure run, never as a panic or a silent hole.
func TestLazyEngineBuilderError(t *testing.T) {
	const n, recipients = 10, 40
	boom := errors.New("boom")
	arrivals, build := refBuilder(t, recipients, false, false)
	failArrivals := func(u int) (traffic.Source, traffic.Source, error) {
		if u == 7 {
			return nil, nil, boom
		}
		return arrivals(u)
	}
	if _, err := NewLazyEngine(n, recipients, failArrivals, build); !errors.Is(err, boom) {
		t.Fatalf("arrivals error not surfaced by the constructor: %v", err)
	}
	if _, err := NewLazyEngine(n, recipients, nil, build); err == nil {
		t.Fatal("nil arrivals accepted")
	}
	if _, err := NewLazyEngine(n, recipients, arrivals, nil); err == nil {
		t.Fatal("nil builder accepted")
	}

	failBuild := func(u int) (User, error) {
		if u == 7 {
			return User{}, boom
		}
		return build(u)
	}
	// Messages from another seed than the arrivals function's: the built
	// user cannot replay its recorded first arrival.
	skewed := func(u int) (User, error) {
		usr, err := build(u)
		if err != nil {
			return User{}, err
		}
		usr.Messages, err = traffic.NewPoisson(25, xrand.New(uint64(99+u)))
		return usr, err
	}
	lazy := func(b Builder) *Engine {
		e, err := NewLazyEngine(n, recipients, arrivals, b)
		if err != nil {
			t.Fatalf("constructor ran the full builder: %v", err)
		}
		return e
	}
	nextRoundErr := func(e *Engine) error {
		var r Round
		for i := 0; i < 1000; i++ {
			if err := e.NextRound(8, &r); err != nil {
				return err
			}
		}
		return nil
	}
	if err := nextRoundErr(lazy(failBuild)); !errors.Is(err, boom) {
		t.Fatalf("NextRound: build error not surfaced: %v", err)
	}
	if err := nextRoundErr(lazy(skewed)); err == nil {
		t.Fatal("NextRound: a build that disagrees with the arrivals function was accepted")
	}
	for _, target := range []int{7, 2} { // the failing user watched, then a bystander
		cfg := DisclosureConfig{Targets: []int{target}, MaxRounds: 1000}
		if _, err := lazy(failBuild).RunDisclosure(cfg); !errors.Is(err, boom) {
			t.Fatalf("RunDisclosure with target %d: build error not surfaced: %v", target, err)
		}
	}
}

// TestLazyDisclosureKillAndResume: ResumeDisclosure round-trips the
// sharded lazy engine state — kill at randomized rounds, serialize
// through JSON, rebuild a fresh lazy engine (cold users and all), and
// demand the resumed run finish byte-identically to the uninterrupted
// one. Small shards force the snapshot to traverse a multi-shard merge
// frontier.
func TestLazyDisclosureKillAndResume(t *testing.T) {
	const n, recipients, shardSize = 36, 120, 5
	build := func() *Engine { return refLazyEngine(t, n, recipients, shardSize, true, true) }
	cfg := DisclosureConfig{Batch: 8, MaxRounds: 500, CheckEvery: 25, ChurnAware: true, Workers: 1}
	base, err := build().RunDisclosure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	krng := xrand.New(4242)
	for trial := 0; trial < 4; trial++ {
		kill := 1 + krng.Intn(cfg.MaxRounds-1)
		run, err := build().StartDisclosure(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := run.Step(kill); err != nil {
			t.Fatal(err)
		}
		st, err := run.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var decoded DisclosureState
		if err := json.Unmarshal(data, &decoded); err != nil {
			t.Fatal(err)
		}
		// The snapshot must not have dragged the whole population warm:
		// only users that sent (or are targets) carry state.
		if len(decoded.Engine.Warm) == n && kill < 20 {
			t.Fatalf("kill=%d: snapshot serialized all %d users warm", kill, n)
		}
		resumed, err := build().ResumeDisclosure(cfg, &decoded)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := resumed.Step(cfg.MaxRounds); err != nil {
			t.Fatal(err)
		}
		got := resumed.Result()
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("kill=%d: resumed result differs from uninterrupted run\ngot  %+v\nwant %+v",
				kill, got, base)
		}
	}
}

// BenchmarkLazyEngineInit times lazy-engine construction over 10^5
// users with cover traffic: the init pass that reads each user's first
// arrival and builds no user.
func BenchmarkLazyEngineInit(b *testing.B) {
	const n, recipients = 100_000, 10_000
	arrivals, build := refBuilder(b, recipients, true, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewLazyEngine(n, recipients, arrivals, build); err != nil {
			b.Fatal(err)
		}
	}
}

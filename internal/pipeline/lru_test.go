package pipeline

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/codegen"
	"repro/internal/fault"
)

// lruSrc is a small program; n makes each source its own content address
// without changing the shape, so every module has the same estimated size.
func lruSrc(n int) string {
	return fmt.Sprintf(`
int main() {
  int i; int acc;
  acc = %d;
  for (i = 0; i < 40; i++) { acc += i * 7; }
  print_int(acc);
  print_nl();
  return 0;
}`, n)
}

// withBuildBudget shrinks the build cache's budget for the test.
func withBuildBudget(t *testing.T, n int64) {
	t.Helper()
	buildMu.Lock()
	prev := buildBudget
	buildBudget = n
	buildMu.Unlock()
	t.Cleanup(func() {
		buildMu.Lock()
		buildBudget = prev
		buildMu.Unlock()
	})
}

// withoutTiers turns the disk store and the remote tier off and starts the
// memory layer cold, so every build that leaves memory recompiles.
func withoutTiers(t *testing.T) {
	t.Helper()
	prevRoot, prevRemote := setRoot(nil), setRemote(nil)
	t.Cleanup(func() {
		setRoot(prevRoot)
		setRemote(prevRemote)
	})
	dropBuilds()
}

// TestBuildCacheEvictsLeastRecentlyUsed feeds distinct programs past a
// budget of three modules while touching one program between cold
// compiles: resident bytes stay within the budget, the touched program is
// never evicted although it was admitted first, and an evicted program
// comes back through the next tier (a disk hit with the store on, a miss
// with it off) with the counters of its first run.
func TestBuildCacheEvictsLeastRecentlyUsed(t *testing.T) {
	for _, storeOn := range []bool{true, false} {
		t.Run(fmt.Sprintf("store=%t", storeOn), func(t *testing.T) {
			want := CacheStats{Misses: 1}
			if storeOn {
				withTestStore(t, defaultMaxBytes)
				prev := setRemote(nil)
				t.Cleanup(func() { setRemote(prev) })
				want = CacheStats{DiskHits: 1}
			} else {
				withoutTiers(t)
			}
			do := func(n int) *Result {
				t.Helper()
				res, err := Do(context.Background(), &Request{Module: lruSrc(n), Config: codegen.Chrome()})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			hot := do(0)
			size := BuildState().ResidentBytes
			if size <= 0 {
				t.Fatalf("resident bytes %d after one build", size)
			}
			withBuildBudget(t, 3*size+size/2)
			evictions := BuildState().Evictions

			first := do(1)
			for n := 2; n < 10; n++ {
				if got := do(0); got.Cache != (CacheStats{MemHits: 1}) || got.Counters != hot.Counters {
					t.Fatalf("program touched before cold compile %d: cache %v, want one memory hit", n, got.Cache)
				}
				if got := do(n); got.Cache != (CacheStats{Misses: 1}) {
					t.Fatalf("cold compile %d: cache %v, want one miss", n, got.Cache)
				}
				if st := BuildState(); st.ResidentBytes > st.BudgetBytes {
					t.Fatalf("resident bytes %d over the budget %d", st.ResidentBytes, st.BudgetBytes)
				}
			}
			if BuildState().Evictions == evictions {
				t.Fatal("feeding programs past the budget evicted nothing")
			}
			again := do(1)
			if again.Cache != want {
				t.Errorf("evicted program came back as %v, want %v", again.Cache, want)
			}
			if again.Stdout != first.Stdout || again.Counters != first.Counters {
				t.Errorf("evicted program diverged: out %q/%q counters %+v/%+v", again.Stdout, first.Stdout, again.Counters, first.Counters)
			}
		})
	}
}

// TestBuildCacheSingleflightUnderEviction holds one compile in flight while
// other builds evict everything they can: the in-flight entry stays pinned,
// so n concurrent identical requests still cost one compile.
func TestBuildCacheSingleflightUnderEviction(t *testing.T) {
	withoutTiers(t)
	withBuildBudget(t, 1)
	disarm, err := fault.ArmSpec("compile@lru-shared=delay:1:2s")
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()

	shared := &Request{Module: lruSrc(1000), Config: codegen.Chrome()}
	key := Key(shared.Module, shared.Config)
	ctx := fault.WithLabel(context.Background(), "lru-shared")
	const n = 8
	results := make([]*Result, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			results[i], errs[i] = Do(ctx, shared)
		}()
	}
	close(start)
	for {
		buildMu.Lock()
		_, ok := buildCache[key]
		buildMu.Unlock()
		if ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for j := 1; j <= 3; j++ {
		res, err := Do(context.Background(), &Request{Module: lruSrc(1000 + j), Config: codegen.Chrome()})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cache != (CacheStats{Misses: 1}) {
			t.Errorf("pressure build %d: cache %v, want one miss", j, res.Cache)
		}
	}
	buildMu.Lock()
	e := buildCache[key]
	pinned := e != nil && e.elem == nil
	buildMu.Unlock()
	if !pinned {
		t.Error("in-flight entry left the cache under eviction pressure")
	}
	wg.Wait()

	var sum CacheStats
	for i, res := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if res.Counters != results[0].Counters {
			t.Errorf("requester %d counters %+v, want %+v", i, res.Counters, results[0].Counters)
		}
		sum.MemHits += res.Cache.MemHits
		sum.Misses += res.Cache.Misses
		sum.DiskHits += res.Cache.DiskHits
	}
	if sum != (CacheStats{Misses: 1, MemHits: n - 1}) {
		t.Errorf("%d identical concurrent requests cost %v, want one miss and %d memory hits", n, sum, n-1)
	}
}

// TestBuildCacheBoundsFailedEntries checks failed and panicked builds leave
// the cache like modules do: M distinct failing sources keep the entry
// count within the budget's worth of nominal entries, while a poisoned
// entry touched between them stays resident and keeps returning its
// deterministic error instead of compiling again.
func TestBuildCacheBoundsFailedEntries(t *testing.T) {
	withoutTiers(t)
	const maxEntries = 8
	withBuildBudget(t, maxEntries*failedEntryBytes)
	disarm, err := fault.ArmSpec("compile@lru-poison=panic:1")
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()

	poisoned := &Request{Module: lruSrc(2000), Config: codegen.Native()}
	pctx := fault.WithLabel(context.Background(), "lru-poison")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("injected compile panic did not reach the requester")
			}
		}()
		Compile(pctx, poisoned)
	}()
	checkPoisoned := func() {
		t.Helper()
		cm, err := Compile(pctx, poisoned)
		if cm != nil || err == nil || !strings.Contains(err.Error(), "poisoned cache entry") {
			t.Fatalf("poisoned entry returned a module: %t, error %v; want no module and its poisoned-entry error", cm != nil, err)
		}
	}
	checkPoisoned()

	for i := range 4 * maxEntries {
		if _, err := Compile(context.Background(), &Request{Module: fmt.Sprintf("int main() { return %d", i), Config: codegen.Native()}); err == nil {
			t.Fatalf("truncated source %d built", i)
		}
		if st := BuildState(); st.Entries > maxEntries || st.ResidentBytes > st.BudgetBytes {
			t.Fatalf("after %d failed builds: %+v, want at most %d entries within the budget", i+1, st, maxEntries)
		}
		checkPoisoned()
	}
}

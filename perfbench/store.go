package main

// Store-warm operations: one pipeline.Compile of a key that is not in memory
// but is on disk, so each is a disk hit (read, sha256 verify, decode). The
// store is chosen once per process, and this process keeps its store off so
// cold compiles stay store-off; the disk hits therefore run in a helper
// process (this binary with -role store-child) whose store is a fresh
// private directory. The helper's setup publishes every key with
// codegen.EncodeModule and pipeline.WriteArtifact; then, for each line the
// benchmark writes to its stdin, it runs the next round's share of the keys
// and answers with one JSON line. At end of input it reports its per-layer
// metrics and spans and exits.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/codegen"
	"repro/internal/pipeline"
)

// childSetup is the helper's first line: its publication interval.
type childSetup struct {
	Setup interval `json:"setup"`
}

// childRound is the helper's answer to one round.
type childRound struct {
	Hits      []keyed  `json:"hits"`
	Attempted int      `json:"attempted"`
	Errors    []string `json:"errors"`
}

// childFinal is the helper's last line.
type childFinal struct {
	Layer map[string]metric `json:"layer"`
	Spans []span            `json:"spans"`
}

// altSource is the n-th store-warm source of p.
func altSource(p pair, seed uint64, n int) string {
	return withSuffix(p.Prog.Source, seed, fmt.Sprintf("alt%d", n))
}

// startStore starts the helper on a fresh store in the run directory's
// subdirectory dir, over ncycles whole cycles of the compile pool, waits for
// its publication, and returns the phase that drives it a round at a time
// and sets store_hit_p50_ms.
func (b *bench) startStore(name, dir string, ncycles int) (phase, error) {
	exe, err := os.Executable()
	if err != nil {
		return phase{}, err
	}
	trace := "0"
	if b.tr != nil {
		trace = "1"
	}
	storeDir := filepath.Join(b.runDir, dir)
	cmd := exec.Command(exe, "-role", "store-child", "-seed", strconv.FormatUint(b.seed, 10),
		"-cycles", strconv.Itoa(ncycles), "-trace", trace, "-store-dir", storeDir)
	cmd.Env = cleanEnv()
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return phase{}, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return phase{}, err
	}
	var offset int64
	if b.tr != nil {
		offset = b.tr.since()
	}
	if err := cmd.Start(); err != nil {
		return phase{}, fmt.Errorf("starting the store-warm helper: %w", err)
	}
	out := bufio.NewReader(outPipe)
	// stop closes the helper's input, drains its output and waits for it.
	stop := func() error {
		in.Close()
		io.Copy(io.Discard, out)
		err := cmd.Wait()
		os.RemoveAll(storeDir)
		return err
	}
	var setup childSetup
	if err := readLine(out, &setup); err != nil {
		stop()
		return phase{}, fmt.Errorf("store-warm helper setup: %w", err)
	}
	b.logf("%s helper published in %.3fs", name, setup.Setup.secs())

	var hits []keyed
	return phase{
		name: name,
		round: func(r int) error {
			b.tr.setEnabled(true)
			if _, err := fmt.Fprintln(in, r); err != nil {
				return fmt.Errorf("store-warm helper: %w", err)
			}
			var rep childRound
			if err := readLine(out, &rep); err != nil {
				return fmt.Errorf("store-warm helper round: %w", err)
			}
			b.mu.Lock()
			b.attempted += rep.Attempted
			b.failed += len(rep.Errors)
			b.errs = append(b.errs, rep.Errors...)
			b.mu.Unlock()
			hits = append(hits, rep.Hits...)
			return nil
		},
		finish: func() error {
			in.Close()
			var fin childFinal
			if err := readLine(out, &fin); err != nil {
				return fmt.Errorf("store-warm helper result: %w", err)
			}
			b.setE2E("store_hit_p50_ms", median(perKeyMS(hits)), "ms")
			if b.tr != nil {
				b.tr.add(fin.Spans, offset)
				for k, v := range fin.Layer {
					b.setLayer(k, v.Value, v.Unit)
				}
			}
			return nil
		},
		stop: stop,
	}, nil
}

// readLine decodes the next JSON line of r into v.
func readLine(r *bufio.Reader, v any) error {
	line, err := r.ReadBytes('\n')
	if err != nil {
		return err
	}
	return json.Unmarshal(line, v)
}

// storeChildMain is the helper process.
func storeChildMain(seed uint64, ncycles int, traced bool) int {
	if err := storeChild(seed, ncycles, traced, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench store-warm helper: %v\n", err)
		return 1
	}
	return 0
}

func storeChild(seed uint64, ncycles int, traced bool, in io.Reader, out io.Writer) error {
	var tr *tracer
	if traced {
		tr = newTracer()
		tr.setEnabled(true)
	}
	enc := json.NewEncoder(out)
	t0 := time.Now()
	dir, ok := pipeline.StoreDir()
	if !ok {
		return fmt.Errorf("artifact store is disabled")
	}
	fp := filepath.Base(dir)
	ops := cycles(seed, "store", compilePool(), ncycles)
	data := map[string][]byte{}
	var sizes []float64
	for i, p := range ops {
		d, ok := data[pairKey(p)]
		if !ok {
			cm, err := directCompile(p.Prog.Source, p.Engine)
			if err != nil {
				return fmt.Errorf("compiling %s: %w", pairKey(p), err)
			}
			sp := tr.begin("codegen.encode", 0, 0)
			d, err = encodeClean(cm)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("encoding %s: %w", pairKey(p), err)
			}
			data[pairKey(p)] = d
			sizes = append(sizes, float64(len(d)))
		}
		cfg, err := codegen.Engine(p.Engine)
		if err != nil {
			return err
		}
		if err := pipeline.WriteArtifact(fp, pipeline.Key(altSource(p, seed, i), cfg), d); err != nil {
			return fmt.Errorf("publishing %s: %w", pairKey(p), err)
		}
	}
	if err := enc.Encode(childSetup{interval{t0, time.Now()}}); err != nil {
		return err
	}
	// Untimed warm-up: decode every artifact once, so the fresh process's
	// heap and code paths are warm before the first timed disk hit.
	for k, d := range data {
		_, engine, _ := strings.Cut(k, "/")
		cfg, err := codegen.Engine(engine)
		if err != nil {
			return err
		}
		if _, err := codegen.DecodeModule(d, cfg); err != nil {
			return fmt.Errorf("decoding %s: %w", k, err)
		}
	}

	ctx := context.Background()
	var ref hostRef
	per := len(ops) / rounds
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		r, err := strconv.Atoi(strings.TrimSpace(sc.Text()))
		if err != nil || r < 0 || r >= rounds {
			return fmt.Errorf("bad round %q", sc.Text())
		}
		settle()
		var rep childRound
		for i := r * per; i < (r+1)*per; i++ {
			p := ops[i]
			rep.Attempted++
			op := int64(i + 1)
			scale := ref.scaleNow(refMaxAge)
			root := tr.begin("op.store_hit", op, 0)
			sp := tr.begin("pipeline.disk_hit", op, root)
			before := pipeline.Stats()
			iv := interval{T0: time.Now()}
			cm, err := pipeline.Compile(ctx, &pipeline.Request{Module: altSource(p, seed, i), Engine: p.Engine})
			iv.T1 = time.Now()
			delta := pipeline.Stats().Sub(before)
			tr.end(sp)
			tr.end(root)
			if err == nil && delta != (pipeline.CacheStats{DiskHits: 1}) {
				err = fmt.Errorf("cache traffic %v, want one disk hit", delta)
			}
			if err == nil {
				var got []byte
				if got, err = encodeClean(cm); err == nil && !bytes.Equal(got, data[pairKey(p)]) {
					err = fmt.Errorf("decoded module differs from the published one")
				}
			}
			if err != nil {
				rep.Errors = append(rep.Errors, fmt.Sprintf("store-warm compile of %s: %v", pairKey(p), err))
				continue
			}
			rep.Hits = append(rep.Hits, keyed{pairKey(p), iv.secs() * 1e3 * scale})
			if traced {
				// The disk hit's verify and decode steps, called directly on
				// the published bytes.
				cfg, _ := codegen.Engine(p.Engine)
				sp = tr.begin("codegen.verify", op, 0)
				codegen.VerifyArtifact(data[pairKey(p)])
				tr.end(sp)
				sp = tr.begin("codegen.decode", op, 0)
				codegen.DecodeModule(data[pairKey(p)], cfg)
				tr.end(sp)
			}
		}
		if err := enc.Encode(rep); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	fin := childFinal{Layer: map[string]metric{}}
	if traced {
		d := durations(tr.snapshot())
		fin.Layer["codegen.verify_ms"] = metric{median(d["codegen.verify"]), "ms"}
		fin.Layer["codegen.decode_ms"] = metric{median(d["codegen.decode"]), "ms"}
		fin.Layer["pipeline.disk_hit_ms"] = metric{median(d["pipeline.disk_hit"]), "ms"}
		fin.Layer["pipeline.disk_hits"] = metric{float64(pipeline.Stats().DiskHits), "count"}
		fin.Layer["codegen.artifact_bytes"] = metric{median(sizes), "bytes"}
		fin.Spans = tr.snapshot()
	}
	return enc.Encode(fin)
}

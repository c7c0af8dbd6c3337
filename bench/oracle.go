package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"

	"repro"
	"repro/internal/lubm"
	"repro/internal/rdf"
)

// reference is what a correct answer to one query looks like: its row
// count and an order-independent hash of its rows.
type reference struct {
	Rows int    `json:"rows"`
	Hash uint64 `json:"hash"`
}

// oracle holds the references of every query, computed by the paper's
// baseline: plain evaluation over a second, saturated store (Thm 3.1
// makes every reformulation strategy agree with it).
type oracle struct {
	Refs     map[string]reference `json:"refs"`
	BuildS   float64              `json:"saturate_build_s"`
	Implicit int                  `json:"implicit_triples"`
}

// rowHasher accumulates an order-independent 64-bit hash of a row set:
// each row is hashed with FNV-1a over its cells, finalized so that
// near-equal rows spread over all bits, and the row hashes are summed.
type rowHasher struct {
	rows int
	sum  uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (h *rowHasher) add(cells []string) {
	x := uint64(fnvOffset)
	for _, c := range cells {
		for i := 0; i < len(c); i++ {
			x = (x ^ uint64(c[i])) * fnvPrime
		}
		x = (x ^ 0xff) * fnvPrime // cell boundary; 0xff is not valid UTF-8
	}
	// splitmix64 finalizer
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	h.sum += x
	h.rows++
}

func (h *rowHasher) reference() reference { return reference{Rows: h.rows, Hash: h.sum} }

// canonicalRow renders a decoded row the way the server's JSON does.
func canonicalRow(row []rdf.Term, dst []string) []string {
	dst = dst[:0]
	for _, t := range row {
		dst = append(dst, t.Canonical())
	}
	return dst
}

// buildOracle answers every known query over a saturated twin of the
// seed's store.
func buildOracle(seed int64, cfg lubm.Config) (*oracle, error) {
	st, err := loadStore(seed, cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	implicit := st.Saturate()
	orc := &oracle{
		Refs:     make(map[string]reference),
		BuildS:   time.Since(start).Seconds(),
		Implicit: implicit,
	}
	a := st.NewAnswerer(repro.Native, repro.Options{})
	texts := queryTexts()
	names := make([]string, 0, len(texts))
	for name := range texts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		res, err := a.Query(texts[name], repro.Saturation)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", name, err)
		}
		var h rowHasher
		var cells []string
		res.Each(func(row []rdf.Term) bool {
			cells = canonicalRow(row, cells)
			h.add(cells)
			return true
		})
		orc.Refs[name] = h.reference()
	}
	return orc, nil
}

// oracleFromChild runs buildOracle in a child process, so the saturated
// store never counts towards this process's peak_rss_mb.
func oracleFromChild(seed int64) (*oracle, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-oracle", "-seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("oracle child: %w", err)
	}
	var orc oracle
	if err := json.Unmarshal(out, &orc); err != nil {
		return nil, fmt.Errorf("oracle child output: %w", err)
	}
	return &orc, nil
}

package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"

	"repro/internal/mrconf"
	"repro/internal/tuner"
)

// KnowledgeBase is the tuning knowledge base of Fig 3. It remembers,
// per job class (Key), both the answer and the search: the best
// configuration a test run found and each scope's search state, so a
// later test run of the class starts where the last one ended.
//
// The optimal configuration also depends on the cluster (paper §1).
// A knowledge base covers one cluster: deployments keep one file per
// cluster.
//
// Safe for concurrent use: Env.Fig13 runs aggressive test runs on
// parallel goroutines against one shared knowledge base.
type KnowledgeBase struct {
	mu      sync.Mutex
	entries map[string]Entry
}

// Entry is what past jobs taught the knowledge base about one class.
type Entry struct {
	// Config is the best configuration found; nil until a test run
	// deposits one. Only an entry with a Config serves a job as-is.
	Config *mrconf.Config `json:"config,omitempty"`
	// Map and Reduce are the scopes' search states, the warm start for
	// the class's next test run.
	Map    tuner.ScopeState `json:"map"`
	Reduce tuner.ScopeState `json:"reduce"`
	// Jobs counts how many runs contributed to the entry.
	Jobs int `json:"jobs,omitempty"`
}

// NewKnowledgeBase returns an empty knowledge base.
func NewKnowledgeBase() *KnowledgeBase {
	return &KnowledgeBase{entries: make(map[string]Entry)}
}

// Key builds the lookup key for a job class: the application name plus
// the power-of-two input-size bucket, so near-identical inputs share a
// tuning.
func Key(app string, inputSizeMB float64) string {
	bucket := 0
	for s := 1.0; s < inputSizeMB; s *= 2 {
		bucket++
	}
	return fmt.Sprintf("%s|2^%dMB", app, bucket)
}

// Get retrieves a class entry.
func (kb *KnowledgeBase) Get(key string) (Entry, bool) {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	e, ok := kb.entries[key]
	return e, ok
}

// Update merges a run's outcome into the class entry. Each scope keeps
// the state with the lower best cost (a warm-started run can only match
// or improve its seed, so the class record never regresses); a non-nil
// Config replaces the stored one.
func (kb *KnowledgeBase) Update(key string, e Entry) {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	cur := kb.entries[key]
	cur.Jobs++
	cur.Map = betterScope(cur.Map, e.Map)
	cur.Reduce = betterScope(cur.Reduce, e.Reduce)
	if e.Config != nil {
		cur.Config = e.Config
	}
	kb.entries[key] = cur
}

func betterScope(a, b tuner.ScopeState) tuner.ScopeState {
	switch {
	case !b.HaveBest:
		return a
	case !a.HaveBest:
		return b
	case b.BestCost < a.BestCost:
		return b
	default:
		return a
	}
}

// Len returns the number of stored class entries.
func (kb *KnowledgeBase) Len() int {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	return len(kb.entries)
}

// Save writes the knowledge base as JSON: a map of key to Entry.
func (kb *KnowledgeBase) Save(path string) error {
	kb.mu.Lock()
	data, err := json.MarshalIndent(kb.entries, "", "  ")
	kb.mu.Unlock()
	if err != nil {
		return fmt.Errorf("core: marshal knowledge base: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("core: save knowledge base: %w", err)
	}
	return nil
}

// Load reads a knowledge base written by Save. Unknown fields and
// entries no run contributed to are errors, so a file in another
// format is rejected rather than read as empty entries.
func Load(path string) (*KnowledgeBase, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: load knowledge base: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	entries := make(map[string]Entry)
	if err := dec.Decode(&entries); err != nil {
		return nil, fmt.Errorf("core: parse knowledge base %s: %w", path, err)
	}
	for k, e := range entries {
		if e.Jobs < 1 {
			return nil, fmt.Errorf("core: parse knowledge base %s: entry %q records no runs", path, k)
		}
	}
	return &KnowledgeBase{entries: entries}, nil
}

// LoadOrNew loads the knowledge base at path, or returns an empty one
// when the file does not exist yet. Any other error is returned.
func LoadOrNew(path string) (*KnowledgeBase, error) {
	kb, err := Load(path)
	if errors.Is(err, fs.ErrNotExist) {
		return NewKnowledgeBase(), nil
	}
	return kb, err
}

package jobs

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"fillvoid/internal/checkpoint"
	"fillvoid/internal/core"
	"fillvoid/internal/telemetry"
)

// ErrModelNotFound reports an unknown model_id.
var ErrModelNotFound = errors.New("jobs: model not found")

// ModelStore is the content-addressed model artifact store: the
// model_id is the hash of a model's bytes (core.FCNN.Save), so equal
// models share one entry and an id can never silently point at
// different weights. It keeps a bounded in-memory cache of models,
// bytes and decoded form, and, when given a directory, persists every
// model's bytes so ids survive restarts (which is what lets a resumed
// job's clients keep their model_id).
type ModelStore struct {
	mu  sync.Mutex
	max int
	dir string // "" = memory-only
	tel *telemetry.Registry

	entries map[string]*modelEntry
	order   []string // LRU order, most recent last
}

type modelEntry struct {
	raw   []byte
	model *core.FCNN
}

// NewModelStore builds a store caching up to max decoded models in
// memory (default 8). dir, when non-empty, is created and used to
// persist model files.
func NewModelStore(dir string, max int, tel *telemetry.Registry) (*ModelStore, error) {
	if max <= 0 {
		max = 8
	}
	if tel == nil {
		tel = telemetry.Default()
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("jobs: model store dir: %w", err)
		}
	}
	return &ModelStore{max: max, dir: dir, tel: tel, entries: make(map[string]*modelEntry)}, nil
}

// ValidID reports whether id has the shape every content-addressed id
// in this system has (cloud, model, and job ids alike): 16 lowercase
// hex digits. Handlers check it before splicing request strings into
// filesystem or URL paths.
func ValidID(id string) bool {
	if len(id) != 16 {
		return false
	}
	for _, c := range id {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// validModelID maps a malformed id onto ErrModelNotFound.
func validModelID(id string) error {
	if !ValidID(id) {
		return ErrModelNotFound
	}
	return nil
}

// IDForModel is the content address of a model: the id of its saved
// bytes (see idOf). Save's bytes depend only on the model's values, so
// the id a training process mints verifies in every process that later
// loads the artifact.
func IDForModel(m *core.FCNN) (string, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return "", err
	}
	return idOf(buf.Bytes()), nil
}

// idOf is the content address of serialized model bytes: FNV-1a 64, 16
// hex digits (the same shape as cloud ids).
func idOf(raw []byte) string {
	h := fnv.New64a()
	h.Write(raw)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Put serializes m once and stores it, returning its model_id.
func (s *ModelStore) Put(m *core.FCNN) (string, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return "", err
	}
	id := idOf(buf.Bytes())
	if err := s.put(id, buf.Bytes(), m); err != nil {
		return "", err
	}
	return id, nil
}

// PutBytes stores serialized model bytes (e.g. replicated from a peer)
// under id, refusing bytes that do not hash to id or do not decode.
func (s *ModelStore) PutBytes(id string, b []byte) error {
	m, err := decode(id, b)
	if err != nil {
		return err
	}
	return s.put(id, bytes.Clone(b), m)
}

// decode checks that raw hashes to id, then decodes it: a torn or
// tampered artifact is refused before it costs a decode.
func decode(id string, raw []byte) (*core.FCNN, error) {
	if idOf(raw) != id {
		return nil, fmt.Errorf("jobs: model bytes do not hash to %s: %w", id, ErrModelNotFound)
	}
	m, err := core.Load(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("jobs: model %s does not decode (%v): %w", id, err, ErrModelNotFound)
	}
	return m, nil
}

// put caches a verified model and persists its bytes through
// checkpoint.WriteFile, so a crash mid-write never leaves a torn file
// under a valid id.
func (s *ModelStore) put(id string, raw []byte, m *core.FCNN) error {
	if _, added := s.insert(id, &modelEntry{raw: raw, model: m}); added {
		s.tel.Counter("jobs.models.stored").Inc()
	}
	if s.dir == "" {
		return nil
	}
	if _, err := os.Stat(s.path(id)); err == nil {
		return nil // content-addressed: an existing file is already right
	}
	return checkpoint.WriteFile(checkpoint.OS(), s.path(id), "."+id+".fcnn-*", raw)
}

// insert caches e under id unless id is cached already, and returns the
// cached entry and whether it is e.
func (s *ModelStore) insert(id string, e *modelEntry) (*modelEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.entries[id]
	if !ok {
		s.entries[id] = e
		cur = e
	}
	s.touch(id)
	s.evict()
	return cur, !ok
}

func (s *ModelStore) path(id string) string {
	return filepath.Join(s.dir, id+".fcnn")
}

// Get returns the decoded model for id, falling back to the persist
// directory on a memory miss.
func (s *ModelStore) Get(id string) (*core.FCNN, error) {
	e, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	return e.model, nil
}

// Bytes returns the serialized model for id (the GET /v1/models body).
func (s *ModelStore) Bytes(id string) ([]byte, error) {
	e, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	return e.raw, nil
}

func (s *ModelStore) lookup(id string) (*modelEntry, error) {
	id = strings.ToLower(id)
	if err := validModelID(id); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if e, ok := s.entries[id]; ok {
		s.touch(id)
		s.mu.Unlock()
		return e, nil
	}
	s.mu.Unlock()
	if s.dir == "" {
		return nil, ErrModelNotFound
	}
	raw, err := os.ReadFile(s.path(id))
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrModelNotFound
	}
	if err != nil {
		return nil, err
	}
	// The file is trusted less than memory: a torn or tampered file fails
	// its content hash and reads as missing rather than as wrong weights.
	m, err := decode(id, raw)
	if err != nil {
		return nil, err
	}
	e, _ := s.insert(id, &modelEntry{raw: raw, model: m})
	return e, nil
}

// Len reports the number of models cached in memory.
func (s *ModelStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// touch moves id to the most-recent end of the LRU order.
// Callers hold s.mu.
func (s *ModelStore) touch(id string) {
	for i, v := range s.order {
		if v == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.order = append(s.order, id)
}

// evict drops least-recently-used memory entries over the cap.
// Persisted files are kept — disk is the durable tier. Callers hold
// s.mu.
func (s *ModelStore) evict() {
	for len(s.entries) > s.max && len(s.order) > 0 {
		old := s.order[0]
		s.order = s.order[1:]
		delete(s.entries, old)
		s.tel.Counter("jobs.models.evicted").Inc()
	}
}

package jobs

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fillvoid/internal/checkpoint"
	"fillvoid/internal/core"
	"fillvoid/internal/grid"
	"fillvoid/internal/mathutil"
	"fillvoid/internal/sampling"
	"fillvoid/internal/telemetry"
)

// State is a job's lifecycle phase.
type State string

const (
	// StateQueued: accepted, waiting for a training worker.
	StateQueued State = "queued"
	// StateRunning: a worker is training.
	StateRunning State = "running"
	// StateCancelling: cancel requested; the run is stopping on an
	// epoch boundary.
	StateCancelling State = "cancelling"
	// StateDone: finished; ModelID names the result.
	StateDone State = "done"
	// StateFailed: training itself errored; terminal.
	StateFailed State = "failed"
	// StateCancelled: stopped by DELETE; terminal (resubmitting the
	// same spec resumes from its last checkpoint).
	StateCancelled State = "cancelled"
	// StateInterrupted: the process shut down or checkpoint storage
	// failed mid-run. Not retried in-process — a restart re-queues it
	// and training resumes from the last intact checkpoint.
	StateInterrupted State = "interrupted"
)

// Terminal reports whether the state can never change within this
// process.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCancelled, StateInterrupted:
		return true
	}
	return false
}

// Sentinel errors the server maps onto HTTP statuses.
var (
	ErrNotFound    = errors.New("jobs: job not found")
	ErrQueueFull   = errors.New("jobs: training queue is full")
	ErrJobFinished = errors.New("jobs: job already finished")
	ErrClosed      = errors.New("jobs: manager is shut down")
)

// Record is the durable part of a job, persisted as job.json in the
// job's directory on every state transition (atomic temp + rename).
type Record struct {
	ID       string `json:"id"`
	Spec     Spec   `json:"spec"`
	State    State  `json:"state"`
	ModelID  string `json:"model_id,omitempty"`
	Error    string `json:"error,omitempty"`
	Resumes  int    `json:"resumes"`
	Created  int64  `json:"created_unix"`
	Started  int64  `json:"started_unix,omitempty"`
	Finished int64  `json:"finished_unix,omitempty"`
}

// Status is a point-in-time snapshot of a job for the API: the record
// plus live training progress from the TrainObserver hook.
type Status struct {
	Record
	// Epoch is the number of lifetime epochs completed so far.
	Epoch int
	// EpochsTotal is the lifetime epoch count the run will end at.
	EpochsTotal int
	// Loss is the most recent epoch's training loss (0 before the
	// first epoch completes).
	Loss float64
}

// inputHeader leads a job's input.bin, the inputs persisted at submit
// time so a restarted process can re-run the job without the original
// HTTP request. All little-endian, it is followed by the truth volume's
// N values and then, for fine-tune jobs, the base model's bytes.
type inputHeader struct {
	NX, NY, NZ      uint64
	Origin, Spacing mathutil.Vec3
	N               uint64
}

// job is the in-process view of one training job.
type job struct {
	mu  sync.Mutex
	rec Record

	epoch    atomic.Int64  // lifetime epochs completed
	lossBits atomic.Uint64 // math.Float64bits of last epoch loss

	cancel context.CancelFunc // non-nil while running
}

func (j *job) snapshot() Status {
	j.mu.Lock()
	rec := j.rec
	j.mu.Unlock()
	st := Status{
		Record: rec,
		Epoch:  int(j.epoch.Load()),
		Loss:   math.Float64frombits(j.lossBits.Load()),
	}
	st.EpochsTotal = rec.Spec.budgetEpochs()
	return st
}

// budgetEpochs is the lifetime epoch count a finished run reports.
// Fine-tune budgets count on top of the base model's epochs, which the
// observer's lifetime counter already includes.
func (s Spec) budgetEpochs() int {
	if s.BaseModel == "" {
		return s.Opts.Epochs
	}
	e := s.FineTuneEpochs
	if e <= 0 {
		e = s.Opts.FineTuneEpochs
		if s.FineTuneMode == core.FineTuneLastTwo {
			e = s.Opts.FineTuneEpochs * 30
		}
	}
	return e
}

// Config configures a Manager.
type Config struct {
	// Dir is the root job-state directory (one subdirectory per job,
	// holding job.json, input.bin, and ckpt/). Required.
	Dir string
	// Workers is the training worker pool size (default 1; negative
	// runs none — jobs queue but never start, which tests and fuzzing
	// use). The pool is deliberately separate from the server's
	// reconstruction admission so training never starves queries.
	Workers int
	// Queue bounds the number of queued jobs; a full queue rejects
	// Submit with ErrQueueFull (default 16). Jobs re-queued by the
	// restart scan are exempt — they were admitted before the crash.
	Queue int
	// CheckpointEvery is the default epoch period between checkpoints
	// for jobs that do not set their own (default 25).
	CheckpointEvery int
	// Keep is the checkpoint retention depth per job (default 3).
	Keep int
	// Models receives finished models. Required.
	Models *ModelStore
	// FS overrides the checkpoint filesystem (default OS); the
	// fault-injection suite arms failures through it.
	FS checkpoint.FS
	// Telemetry receives queue/duration metrics and job spans
	// (default: the process-global registry).
	Telemetry *telemetry.Registry
	// Now supplies record timestamps (default time.Now().Unix).
	Now func() int64
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.Workers < 0 {
		c.Workers = 0
	}
	if c.Queue <= 0 {
		c.Queue = 16
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 25
	}
	if c.Keep <= 0 {
		c.Keep = 3
	}
	if c.Telemetry == nil {
		c.Telemetry = telemetry.Default()
	}
	if c.Now == nil {
		c.Now = func() int64 { return time.Now().Unix() }
	}
	return c
}

// Manager owns the job queue, the worker pool, and the per-job durable
// state. Creating one scans Dir and re-queues every job a previous
// process left unfinished, so training survives crashes and restarts.
type Manager struct {
	cfg Config
	tel *telemetry.Registry

	mu      sync.Mutex
	jobs    map[string]*job
	pending []string
	closed  bool

	wake chan struct{}
	quit chan struct{}
	wg   sync.WaitGroup
}

// New builds a Manager, runs the restart scan, and starts the workers.
func New(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("jobs: Config.Dir is required")
	}
	if cfg.Models == nil {
		return nil, errors.New("jobs: Config.Models is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	m := &Manager{
		cfg:  cfg,
		tel:  cfg.Telemetry,
		jobs: make(map[string]*job),
		wake: make(chan struct{}, 1),
		quit: make(chan struct{}),
	}
	if err := m.scan(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		//lint:allow rawgoroutine: long-lived worker accounted by m.wg; exits when Close closes m.quit
		go m.worker()
	}
	m.updateDepth()
	return m, nil
}

// scan loads every job directory left by a previous process. Unfinished
// jobs (queued, running, interrupted) are re-queued with Resume counted;
// a job caught mid-cancel becomes cancelled; terminal jobs stay visible
// for status queries.
func (m *Manager) scan() error {
	ents, err := os.ReadDir(m.cfg.Dir)
	if err != nil {
		return fmt.Errorf("jobs: scan: %w", err)
	}
	var requeue []*job
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		rec, err := readRecord(filepath.Join(m.cfg.Dir, e.Name(), "job.json"))
		if err != nil {
			telemetry.Warnf("jobs: skipping unreadable job dir", "dir", e.Name(), "err", err)
			continue
		}
		if rec.ID != e.Name() {
			telemetry.Warnf("jobs: skipping job dir with mismatched id", "dir", e.Name(), "id", rec.ID)
			continue
		}
		j := &job{rec: rec}
		switch rec.State {
		case StateQueued, StateRunning, StateInterrupted:
			if rec.State != StateQueued {
				j.rec.Resumes++
				m.tel.Counter("jobs.resumed").Inc()
			}
			j.rec.State = StateQueued
			if err := m.persist(j); err != nil {
				return err
			}
			requeue = append(requeue, j)
		case StateCancelling:
			j.rec.State = StateCancelled
			j.rec.Finished = m.cfg.Now()
			if err := m.persist(j); err != nil {
				return err
			}
		}
		m.jobs[rec.ID] = j
	}
	// Oldest first, so a restart preserves rough submission order.
	sort.Slice(requeue, func(a, b int) bool { return requeue[a].rec.Created < requeue[b].rec.Created })
	for _, j := range requeue {
		m.pending = append(m.pending, j.rec.ID)
	}
	if len(requeue) > 0 {
		telemetry.Infof("jobs: re-queued unfinished jobs from previous run", "count", len(requeue))
		m.kick()
	}
	return nil
}

// Submit accepts a training job. truth is the full training volume
// (see VolumeFromCloud); base is the serialized base model for
// fine-tune specs (nil for pretraining). Submission is idempotent on
// the spec: an existing live or done job is returned as-is (created =
// false), and a failed/cancelled/interrupted one is re-queued, resuming
// from its last checkpoint.
func (m *Manager) Submit(spec Spec, truth *grid.Volume, base []byte) (Status, bool, error) {
	if err := spec.Validate(0); err != nil {
		return Status{}, false, err
	}
	if truth == nil {
		return Status{}, false, errors.New("jobs: training volume is required")
	}
	if truth.NX != spec.Grid.NX || truth.NY != spec.Grid.NY || truth.NZ != spec.Grid.NZ {
		return Status{}, false, errors.New("jobs: volume does not match spec grid")
	}
	if (spec.BaseModel != "") != (base != nil) {
		return Status{}, false, errors.New("jobs: base model bytes must accompany exactly the fine-tune specs")
	}
	id := IDFor(spec)

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Status{}, false, ErrClosed
	}
	if j, ok := m.jobs[id]; ok {
		switch j.rec.State {
		case StateFailed, StateCancelled, StateInterrupted:
			j.mu.Lock()
			j.rec.State = StateQueued
			j.rec.Resumes++
			j.rec.Error = ""
			j.rec.Finished = 0
			j.mu.Unlock()
			m.pending = append(m.pending, id)
			m.updateDepthLocked()
			m.mu.Unlock()
			// Persist outside m.mu: the fsync must not stall every other
			// job operation (lockheld). The enqueue already took effect,
			// so a persist failure is best-effort like finish()'s — the
			// worker rewrites the record with fresher state on dequeue.
			if err := m.persist(j); err != nil {
				telemetry.Warnf("jobs: persisting resubmission failed", "job", id, "err", err)
			}
			m.kick()
			m.tel.Counter("jobs.resubmitted").Inc()
			return j.snapshot(), true, nil
		default:
			m.mu.Unlock()
			return j.snapshot(), false, nil
		}
	}
	if len(m.pending) >= m.cfg.Queue {
		m.mu.Unlock()
		return Status{}, false, ErrQueueFull
	}
	// Reserve the id under the lock, then do the disk writes (input
	// encode + two fsyncs) unlocked so concurrent submits and status
	// queries are not serialized behind them. A duplicate Submit in the
	// window sees the reservation and returns it idempotently; Cancel
	// in the window marks it cancelled and the worker's dequeue guard
	// skips it.
	j := &job{rec: Record{ID: id, Spec: spec, State: StateQueued, Created: m.cfg.Now()}}
	m.jobs[id] = j
	m.mu.Unlock()

	err := m.writeInput(id, truth, base)
	if err == nil {
		err = m.persist(j)
	}
	m.mu.Lock()
	if err != nil {
		delete(m.jobs, id)
		m.mu.Unlock()
		return Status{}, false, err
	}
	m.pending = append(m.pending, id)
	m.updateDepthLocked()
	m.mu.Unlock()
	m.kick()
	m.tel.Counter("jobs.submitted").Inc()
	return j.snapshot(), true, nil
}

// Get returns the job's current status.
func (m *Manager) Get(id string) (Status, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Status{}, ErrNotFound
	}
	return j.snapshot(), nil
}

// Cancel stops a job: a queued one is cancelled immediately, a running
// one is asked to stop on its next epoch boundary (it writes a final
// checkpoint first, so a later resubmission resumes rather than
// restarts). Cancelling a finished job returns ErrJobFinished.
func (m *Manager) Cancel(id string) (Status, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return Status{}, ErrNotFound
	}
	j.mu.Lock()
	state := j.rec.State
	j.mu.Unlock()
	switch state {
	case StateQueued:
		for i, p := range m.pending {
			if p == id {
				m.pending = append(m.pending[:i], m.pending[i+1:]...)
				break
			}
		}
		j.mu.Lock()
		j.rec.State = StateCancelled
		j.rec.Finished = m.cfg.Now()
		j.mu.Unlock()
		m.updateDepthLocked()
		m.mu.Unlock()
		// Persist after releasing m.mu (lockheld): the record's state is
		// already final in memory; the fsync only makes it durable.
		if err := m.persist(j); err != nil {
			return Status{}, err
		}
		m.tel.Counter("jobs.cancelled").Inc()
		return j.snapshot(), nil
	case StateRunning:
		j.mu.Lock()
		j.rec.State = StateCancelling
		cancel := j.cancel
		j.mu.Unlock()
		m.mu.Unlock()
		if err := m.persist(j); err != nil {
			return Status{}, err
		}
		if cancel != nil {
			cancel()
		}
		return j.snapshot(), nil
	case StateCancelling:
		m.mu.Unlock()
		return j.snapshot(), nil
	default:
		m.mu.Unlock()
		return j.snapshot(), ErrJobFinished
	}
}

// Depth returns (queued, running) counts for health reporting.
func (m *Manager) Depth() (queued, running int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	queued = len(m.pending)
	for _, j := range m.jobs {
		j.mu.Lock()
		if j.rec.State == StateRunning || j.rec.State == StateCancelling {
			running++
		}
		j.mu.Unlock()
	}
	return queued, running
}

// Close stops intake, interrupts running jobs (they checkpoint and
// persist as interrupted for the next process to resume), and waits
// for the workers up to ctx's deadline.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	var cancels []context.CancelFunc
	for _, j := range m.jobs {
		j.mu.Lock()
		if j.cancel != nil {
			cancels = append(cancels, j.cancel)
		}
		j.mu.Unlock()
	}
	m.mu.Unlock()
	close(m.quit)
	for _, c := range cancels {
		c()
	}
	done := make(chan struct{})
	//lint:allow rawgoroutine: bounded waiter that exits as soon as the workers drain
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (m *Manager) kick() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

func (m *Manager) updateDepth() {
	m.mu.Lock()
	m.updateDepthLocked()
	m.mu.Unlock()
}

// updateDepthLocked refreshes the queue-depth gauge. Callers hold m.mu.
func (m *Manager) updateDepthLocked() {
	m.tel.Gauge("jobs.queue.depth").Set(float64(len(m.pending)))
}

// worker pops queued jobs and trains them until Close.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		var j *job
		if len(m.pending) > 0 && !m.closed {
			id := m.pending[0]
			m.pending = m.pending[1:]
			j = m.jobs[id]
			m.updateDepthLocked()
		}
		m.mu.Unlock()
		if j == nil {
			select {
			case <-m.quit:
				return
			case <-m.wake:
				continue
			}
		}
		m.run(j)
		m.kick() // there may be more pending work
	}
}

// run executes one job: rebuild the inputs, train with crash-safe
// checkpointing, classify the outcome, and persist it.
func (m *Manager) run(j *job) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j.mu.Lock()
	switch j.rec.State {
	case StateQueued:
		j.rec.State = StateRunning
	case StateCancelling:
		// Cancel raced the dequeue: train under an already-cancelled
		// context so the run checkpoints immediately and the outcome
		// classifies as a clean cancellation.
		cancel()
	default:
		// Cancelled between dequeue and start; Cancel already
		// persisted the outcome.
		j.mu.Unlock()
		return
	}
	if j.rec.Started == 0 {
		j.rec.Started = m.cfg.Now()
	}
	j.cancel = cancel
	id := j.rec.ID
	spec := j.rec.Spec
	j.mu.Unlock()
	if err := m.persist(j); err != nil {
		m.finish(j, StateFailed, "", fmt.Sprintf("persist: %v", err))
		return
	}

	tctx, sp := m.tel.Start(ctx, "jobs.train")
	m.tel.Gauge("jobs.running").Add(1)
	modelID, err := m.train(tctx, j, id, spec)
	m.tel.Gauge("jobs.running").Add(-1)
	sp.End()

	j.mu.Lock()
	j.cancel = nil
	cancelling := j.rec.State == StateCancelling
	j.mu.Unlock()

	switch {
	case err == nil:
		m.finish(j, StateDone, modelID, "")
	case errors.Is(err, core.ErrStopped) && cancelling:
		m.finish(j, StateCancelled, "", "")
	case errors.Is(err, core.ErrStopped), errors.Is(err, core.ErrCheckpoint):
		// Shutdown, or checkpoint storage failed mid-run: either way
		// the last intact checkpoint is the restart point.
		m.finish(j, StateInterrupted, "", errString(err))
	default:
		m.finish(j, StateFailed, "", err.Error())
	}
}

func errString(err error) string {
	if errors.Is(err, core.ErrStopped) {
		return ""
	}
	return err.Error()
}

// train runs the actual checkpointed training and stores the result.
func (m *Manager) train(ctx context.Context, j *job, id string, spec Spec) (string, error) {
	truth, base, err := m.readInput(id)
	if err != nil {
		return "", err
	}
	sampler, err := sampling.ByName(spec.Sampler, spec.SamplerSeed)
	if err != nil {
		return "", err
	}
	ckMgr, err := checkpoint.NewManager(checkpoint.Config{
		Dir:       filepath.Join(m.cfg.Dir, id, "ckpt"),
		Keep:      m.cfg.Keep,
		FS:        m.cfg.FS,
		Telemetry: m.cfg.Telemetry,
	})
	if err != nil {
		return "", err
	}
	every := spec.CheckpointEvery
	if every <= 0 {
		every = m.cfg.CheckpointEvery
	}
	ck := core.Checkpointing{
		Manager: ckMgr,
		Every:   every,
		Resume:  true,
		Observer: telemetry.ObserverFunc(func(e telemetry.EpochStat) {
			j.epoch.Store(int64(e.Epoch) + 1)
			j.lossBits.Store(math.Float64bits(e.Loss))
		}),
	}

	var model *core.FCNN
	if spec.BaseModel == "" {
		model, err = core.PretrainResumable(ctx, truth, spec.Field, sampler, spec.Opts, ck)
	} else {
		model, err = core.Load(bytes.NewReader(base))
		if err != nil {
			return "", fmt.Errorf("jobs: base model: %w", err)
		}
		err = model.FineTuneResumable(ctx, truth, sampler, spec.FineTuneMode, spec.FineTuneEpochs, ck)
	}
	if err != nil {
		return "", err
	}
	return m.cfg.Models.Put(model)
}

// finish records a job's terminal (or interrupted) outcome.
func (m *Manager) finish(j *job, state State, modelID, errMsg string) {
	j.mu.Lock()
	j.rec.State = state
	j.rec.ModelID = modelID
	j.rec.Error = errMsg
	j.rec.Finished = m.cfg.Now()
	j.mu.Unlock()
	if err := m.persist(j); err != nil {
		telemetry.Warnf("jobs: persisting job outcome failed", "job", j.rec.ID, "err", err)
	}
	m.tel.Counter("jobs." + string(state)).Inc()
	telemetry.Infof("job finished", "job", j.rec.ID, "state", state, "model", modelID, "err", errMsg)
}

// persist writes the job's record durably to its job.json.
func (m *Manager) persist(j *job) error {
	j.mu.Lock()
	rec := j.rec
	j.mu.Unlock()
	dir := filepath.Join(m.cfg.Dir, rec.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	return checkpoint.WriteFile(checkpoint.OS(), filepath.Join(dir, "job.json"), ".job.json-*", b)
}

func readRecord(path string) (Record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Record{}, err
	}
	var rec Record
	if err := json.Unmarshal(b, &rec); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// writeInput persists the job's training inputs at submit time.
func (m *Manager) writeInput(id string, truth *grid.Volume, base []byte) error {
	dir := filepath.Join(m.cfg.Dir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	var buf bytes.Buffer
	h := inputHeader{uint64(truth.NX), uint64(truth.NY), uint64(truth.NZ), truth.Origin, truth.Spacing, uint64(len(truth.Data))}
	for _, v := range []any{h, truth.Data} {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("jobs: %w", err)
		}
	}
	return checkpoint.WriteFile(checkpoint.OS(), filepath.Join(dir, "input.bin"), ".input.bin-*", buf.Bytes(), base)
}

// readInput reads back a job's inputs, refusing a volume whose value
// count is not NX·NY·NZ or whose spacing is not positive.
func (m *Manager) readInput(id string) (truth *grid.Volume, base []byte, err error) {
	b, err := os.ReadFile(filepath.Join(m.cfg.Dir, id, "input.bin"))
	if err != nil {
		return nil, nil, fmt.Errorf("jobs: %w", err)
	}
	r := bytes.NewReader(b)
	var h inputHeader
	if err := binary.Read(r, binary.LittleEndian, &h); err != nil {
		return nil, nil, fmt.Errorf("jobs: input header: %w", err)
	}
	if h.NX < 1 || h.NY < 1 || h.NZ < 1 || h.N%h.NX != 0 || h.N/h.NX%h.NY != 0 || h.N/h.NX/h.NY != h.NZ {
		return nil, nil, fmt.Errorf("jobs: input volume %dx%dx%d holds %d values", h.NX, h.NY, h.NZ, h.N)
	}
	if h.N > uint64(r.Len()/8) {
		return nil, nil, fmt.Errorf("jobs: input volume truncated: %w", io.ErrUnexpectedEOF)
	}
	if s := h.Spacing; !(s.X > 0 && s.Y > 0 && s.Z > 0) {
		return nil, nil, fmt.Errorf("jobs: input volume spacing %+v is not positive", s)
	}
	truth = &grid.Volume{NX: int(h.NX), NY: int(h.NY), NZ: int(h.NZ), Origin: h.Origin, Spacing: h.Spacing, Data: make([]float64, h.N)}
	if err := binary.Read(r, binary.LittleEndian, truth.Data); err != nil {
		return nil, nil, fmt.Errorf("jobs: input volume: %w", err)
	}
	return truth, b[len(b)-r.Len():], nil
}

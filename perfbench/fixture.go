package main

import (
	"fmt"
	"math"
	"math/rand"

	"fillvoid/internal/core"
	"fillvoid/internal/datasets"
	"fillvoid/internal/grid"
	"fillvoid/internal/metrics"
	"fillvoid/internal/pointcloud"
	"fillvoid/internal/recon"
	"fillvoid/internal/sampling"
)

// Fixed inputs shared by every workload: the Isabel analog at divisor 4
// (a 62x62x12 grid, 46,128 nodes) and the small-scale network.
const (
	datasetDivisor = 4
	fieldName      = "pressure"
	modelRows      = 8000
	modelBatch     = 256
	roiSide        = 8 // ROI boxes are roiSide x roiSide x roiDepth
	roiDepth       = 4
)

var modelHidden = []int{128, 64, 32, 16, 8}

// The in-situ training timestep is fixed: the field it comes from and
// the pretrained model are the same for every --seed. Training this
// small network for a few epochs swings its SNR by several dB from one
// training seed to the next, which would swamp the run-to-run spread;
// the seed varies everything the model is applied to instead.
const (
	trainSeed = 1
	baseStep  = 6 // the training timestep; ops use the ones after it
)

// fixture is the data and model one workload set-up generates: the
// pretrained FCNN, ground-truth volumes of the seeded field, and a
// seeded source for clouds and requests.
type fixture struct {
	seed  int64
	gen   *datasets.Isabel // the seeded field the workload runs on
	spec  recon.GridSpec
	train *grid.Volume // the training timestep of the fixed field
	vols  map[int]*grid.Volume
	model *core.FCNN
	rng   *rand.Rand
}

// newFixture generates the training timestep and pretrains the FCNN
// with the given number of epochs.
func newFixture(seed int64, epochs int) (*fixture, error) {
	tg := datasets.NewIsabel(trainSeed)
	nx, ny, nz := tg.DefaultDims(datasetDivisor)
	f := &fixture{
		seed:  seed,
		gen:   datasets.NewIsabel(seed),
		train: datasets.Volume(tg, nx, ny, nz, baseStep),
		vols:  map[int]*grid.Volume{},
		rng:   rand.New(rand.NewSource(seed)),
	}
	f.spec = recon.SpecOf(f.train)
	opts := core.DefaultOptions()
	opts.Hidden = modelHidden
	opts.Epochs = epochs
	opts.MaxTrainRows = modelRows
	opts.BatchSize = modelBatch
	opts.Seed = trainSeed
	m, err := core.Pretrain(f.train, fieldName, &sampling.Importance{Seed: trainSeed}, opts)
	if err != nil {
		return nil, fmt.Errorf("pretraining: %w", err)
	}
	f.model = m
	return f, nil
}

// volume returns the seeded field's ground truth at timestep
// baseStep+dt, generating it on first use.
func (f *fixture) volume(dt int) *grid.Volume {
	t := baseStep + dt
	v, ok := f.vols[t]
	if !ok {
		nx, ny, nz := f.gen.DefaultDims(datasetDivisor)
		v = datasets.Volume(f.gen, nx, ny, nz, t)
		f.vols[t] = v
	}
	return v
}

// sample draws an importance-sampled cloud of timestep baseStep+dt.
func (f *fixture) sample(dt int, frac float64, samplerSeed int64) (*pointcloud.Cloud, error) {
	c, _, err := (&sampling.Importance{Seed: samplerSeed}).Sample(f.volume(dt), fieldName, frac)
	if err != nil {
		return nil, fmt.Errorf("sampling t=%d at %g: %w", baseStep+dt, frac, err)
	}
	return c, nil
}

// randomBox returns a seeded ROI box inside the grid.
func (f *fixture) randomBox() recon.Region {
	i := f.rng.Intn(f.spec.NX - roiSide + 1)
	j := f.rng.Intn(f.spec.NY - roiSide + 1)
	k := f.rng.Intn(f.spec.NZ - roiDepth + 1)
	return recon.Box(i, j, k, i+roiSide, j+roiSide, k+roiDepth)
}

// truthAt returns the ground truth of timestep baseStep+dt at each node
// of the box region.
func (f *fixture) truthAt(dt int, region recon.Region) []float64 {
	out := make([]float64, region.Len())
	v := f.volume(dt)
	for n := range out {
		out[n] = v.Data[region.GridIndex(f.spec, n)]
	}
	return out
}

// snr is the reconstruction SNR in dB of got against want.
func snr(want, got []float64) (float64, error) {
	s, err := metrics.SNRSlices(want, got)
	if err != nil {
		return 0, err
	}
	if math.IsInf(s, 0) || math.IsNaN(s) {
		return 0, fmt.Errorf("degenerate SNR %v", s)
	}
	return s, nil
}

// sameBits reports whether a and b hold bit-identical values.
func sameBits(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d values, want %d", len(b), len(a))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("value %d is %v, want %v", i, b[i], a[i])
		}
	}
	return nil
}

// allFinite reports the first non-finite value, if any.
func allFinite(xs []float64) error {
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("value %d is %v", i, x)
		}
	}
	return nil
}

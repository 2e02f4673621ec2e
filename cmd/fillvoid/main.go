// Command fillvoid is the end-to-end workflow CLI: generate synthetic
// simulation volumes, sample them in situ, pretrain/fine-tune FCNN
// reconstructors, reconstruct full volumes from sampled point clouds
// with any method, evaluate reconstruction quality, and render slices.
//
// Subcommands (run any without arguments for its flag list):
//
//	fillvoid generate    -dataset isabel -t 10 -o vol.vti
//	fillvoid sample      -in vol.vti -frac 0.01 -o points.vtp
//	fillvoid train       -in vol.vti -model model.bin [-checkpoint-dir ck -resume]
//	fillvoid finetune    -in vol2.vti -model model.bin -o tuned.bin
//	fillvoid reconstruct -points points.vtp -like vol.vti -method fcnn -model model.bin -o recon.vti
//	fillvoid evaluate    -truth vol.vti -recon recon.vti
//	fillvoid render      -in recon.vti -slice 5 -o slice.ppm
//	fillvoid serve       -addr :8080 -model model.bin [-peers r0=...,r1=... -replica-id r0]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"fillvoid/internal/checkpoint"
	"fillvoid/internal/codec"
	"fillvoid/internal/core"
	"fillvoid/internal/datasets"
	"fillvoid/internal/interp"
	"fillvoid/internal/metrics"
	"fillvoid/internal/recon"
	"fillvoid/internal/sampling"
	"fillvoid/internal/telemetry"
	"fillvoid/internal/vtk"
)

// startTelemetry applies the shared observability flags after
// fs.Parse and opens the invocation's root span, cmd/<name> (a no-op
// without -metrics-out, -pprof or -trace-out). It returns the root's
// context, which stage code traces under, and a finish func that ends
// the root and merges snapshot-write/trace-write/server-shutdown
// errors into the command's named return error.
func startTelemetry(name string, tf *telemetry.Flags, cmdErr *error) (ctx context.Context, finish func(), err error) {
	stop, err := tf.Start()
	if err != nil {
		return nil, nil, err
	}
	ctx, root := telemetry.Default().StartTrace(context.Background(), "cmd/"+name, "")
	return ctx, func() {
		if *cmdErr != nil {
			root.SetError((*cmdErr).Error())
		}
		root.End()
		if serr := stop(); serr != nil && *cmdErr == nil {
			*cmdErr = serr
		}
	}, nil
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "generate":
		err = cmdGenerate(args)
	case "sample":
		err = cmdSample(args)
	case "train":
		err = cmdTrain(args)
	case "finetune":
		err = cmdFinetune(args)
	case "reconstruct":
		err = cmdReconstruct(args)
	case "evaluate":
		err = cmdEvaluate(args)
	case "render":
		err = cmdRender(args)
	case "pack":
		err = cmdPack(args)
	case "unpack":
		err = cmdUnpack(args)
	case "serve":
		err = cmdServe(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "fillvoid: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fillvoid %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `fillvoid — ML reconstruction of sampled simulation data

commands:
  generate     synthesize a dataset timestep as a .vti volume
  sample       importance-sample a volume into a .vtp point cloud
  train        pretrain an FCNN reconstructor on a volume
  finetune     fine-tune a pretrained model on a new volume
  reconstruct  rebuild a full volume from a point cloud
  evaluate     report SNR/PSNR/RMSE of a reconstruction vs ground truth
  render       render a z-slice of a volume to a PPM image
  pack         sample a volume into the compact .fvs storage format
  unpack       expand a .fvs file back into a .vtp point cloud
  serve        run the HTTP reconstruction service

run 'fillvoid <command>' with no flags to see its options`)
}

func cmdGenerate(args []string) (err error) {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	dataset := fs.String("dataset", "isabel", "dataset analog: "+strings.Join(datasets.Names(), ", "))
	t := fs.Int("t", 0, "timestep")
	div := fs.Int("div", 5, "resolution divisor vs the paper's native dims (1 = full)")
	seed := fs.Int64("seed", 42, "generator seed")
	out := fs.String("o", "volume.vti", "output .vti path")
	tf := telemetry.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, finish, err := startTelemetry(fs.Name(), tf, &err)
	if err != nil {
		return err
	}
	defer finish()

	gen, err := datasets.ByName(*dataset, *seed)
	if err != nil {
		return err
	}
	nx, ny, nz := gen.DefaultDims(*div)
	v := datasets.Volume(gen, nx, ny, nz, *t)
	if err := vtk.WriteVTIFile(*out, v, gen.FieldName()); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %s[%s] t=%d %dx%dx%d (%d points)\n",
		*out, gen.Name(), gen.FieldName(), *t, nx, ny, nz, v.Len())
	return nil
}

func cmdSample(args []string) (err error) {
	fs := flag.NewFlagSet("sample", flag.ExitOnError)
	in := fs.String("in", "", "input .vti volume")
	frac := fs.Float64("frac", 0.01, "sampling fraction (0, 1]")
	method := fs.String("method", "importance", "sampler: importance, random, stratified")
	seed := fs.Int64("seed", 42, "sampler seed")
	out := fs.String("o", "points.vtp", "output .vtp path")
	tf := telemetry.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, finish, err := startTelemetry(fs.Name(), tf, &err)
	if err != nil {
		return err
	}
	defer finish()
	if *in == "" {
		return fmt.Errorf("-in is required")
	}

	v, name, err := vtk.ReadVTIFile(*in)
	if err != nil {
		return err
	}
	s, err := sampling.ByName(*method, *seed)
	if err != nil {
		return err
	}
	cloud, _, err := s.Sample(v, name, *frac)
	if err != nil {
		return err
	}
	if err := vtk.WriteVTPFile(*out, cloud); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d points (%.3f%% of %d)\n", *out, cloud.Len(),
		100*float64(cloud.Len())/float64(v.Len()), v.Len())
	return nil
}

func cmdTrain(args []string) (err error) {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	in := fs.String("in", "", "input .vti ground-truth volume")
	model := fs.String("model", "model.bin", "output model path")
	epochs := fs.Int("epochs", 300, "training epochs")
	hidden := fs.String("hidden", "128,64,32,16,8", "hidden layer widths, comma separated")
	maxRows := fs.Int("max-rows", 20000, "cap on training rows (0 = unlimited)")
	seed := fs.Int64("seed", 42, "seed")
	ckDir := fs.String("checkpoint-dir", "", "directory for crash-safe training checkpoints (empty = off)")
	ckEvery := fs.Int("checkpoint-every", 25, "epochs between checkpoints")
	ckKeep := fs.Int("checkpoint-keep", 3, "checkpoints retained (newest first)")
	resume := fs.Bool("resume", false, "resume from the newest checkpoint in -checkpoint-dir")
	tf := telemetry.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, finish, err := startTelemetry(fs.Name(), tf, &err)
	if err != nil {
		return err
	}
	defer finish()
	if *in == "" {
		return fmt.Errorf("-in is required")
	}

	v, name, err := vtk.ReadVTIFile(*in)
	if err != nil {
		return err
	}
	opts := core.DefaultOptions()
	opts.Epochs = *epochs
	opts.MaxTrainRows = *maxRows
	opts.Seed = *seed
	opts.BatchSize = 128
	opts.Hidden, err = parseInts(*hidden)
	if err != nil {
		return err
	}
	var ck core.Checkpointing
	if *ckDir != "" {
		// Crash-safe path: SIGINT/SIGTERM stop training at the next epoch
		// boundary after a final checkpoint; -resume continues from it.
		mgr, err := checkpoint.NewManager(checkpoint.Config{Dir: *ckDir, Keep: *ckKeep})
		if err != nil {
			return err
		}
		ck = core.Checkpointing{Manager: mgr, Every: *ckEvery, Resume: *resume}
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
	} else if *resume {
		return fmt.Errorf("-resume requires -checkpoint-dir")
	}
	fmt.Printf("pretraining on %s (%d points, field %q)...\n", *in, v.Len(), name)
	r, err := core.PretrainResumable(ctx, v, name, &sampling.Importance{Seed: *seed}, opts, ck)
	if errors.Is(err, core.ErrStopped) {
		losses := r.Losses()
		fmt.Printf("interrupted after epoch %d; checkpoint saved in %s — rerun with -resume to continue\n",
			len(losses), *ckDir)
		return nil
	}
	if err != nil {
		return err
	}
	if err := r.SaveFile(*model); err != nil {
		return err
	}
	losses := r.Losses()
	fmt.Printf("wrote %s: %d params, final loss %.6f\n",
		*model, r.Network().ParamCount(), losses[len(losses)-1])
	return nil
}

func cmdFinetune(args []string) (err error) {
	fs := flag.NewFlagSet("finetune", flag.ExitOnError)
	in := fs.String("in", "", "new .vti ground-truth volume (new timestep or resolution)")
	model := fs.String("model", "", "pretrained model path")
	out := fs.String("o", "", "output model path (default: overwrite -model)")
	epochs := fs.Int("epochs", 0, "fine-tune epochs (0 = mode default)")
	caseMode := fs.Int("case", 1, "1 = all layers (fast), 2 = last two layers (small storage)")
	seed := fs.Int64("seed", 42, "sampler seed")
	tf := telemetry.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, finish, err := startTelemetry(fs.Name(), tf, &err)
	if err != nil {
		return err
	}
	defer finish()
	if *in == "" || *model == "" {
		return fmt.Errorf("-in and -model are required")
	}
	if *out == "" {
		*out = *model
	}

	v, _, err := vtk.ReadVTIFile(*in)
	if err != nil {
		return err
	}
	r, err := core.LoadFile(*model)
	if err != nil {
		return err
	}
	mode := core.FineTuneAll
	if *caseMode == 2 {
		mode = core.FineTuneLastTwo
	}
	if err := r.FineTuneResumable(ctx, v, &sampling.Importance{Seed: *seed}, mode, *epochs, core.Checkpointing{}); err != nil {
		return err
	}
	if err := r.SaveFile(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %s (fine-tuned, %s)\n", *out, mode)
	return nil
}

func cmdReconstruct(args []string) (err error) {
	fs := flag.NewFlagSet("reconstruct", flag.ExitOnError)
	points := fs.String("points", "", "input .vtp sampled point cloud")
	like := fs.String("like", "", ".vti volume defining the output grid geometry")
	method := fs.String("method", "fcnn", "fcnn, linear, linear-seq, natural, shepard, nearest, rbf")
	model := fs.String("model", "", "trained model path (required for -method fcnn)")
	quant := fs.String("quant", "", "quantized inference: f16 or int8 (fcnn only)")
	out := fs.String("o", "recon.vti", "output .vti path")
	tf := telemetry.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, finish, err := startTelemetry(fs.Name(), tf, &err)
	if err != nil {
		return err
	}
	defer finish()
	if *points == "" || *like == "" {
		return fmt.Errorf("-points and -like are required")
	}

	// Resolve the method through the registry before touching any input
	// files: a typo'd -method or a missing -model fails here, up front,
	// with the registered-name list in the error.
	reg := interp.StandardRegistry(0)
	reg.Register("fcnn", func() (interp.Reconstructor, error) {
		if *model == "" {
			return nil, fmt.Errorf("-model is required for -method fcnn")
		}
		return core.LoadFile(*model)
	})
	m, err := reg.Get(*method)
	if err != nil {
		return err
	}
	if *quant != "" {
		qm, ok := m.(interface {
			WithQuant(string) (interp.Reconstructor, error)
		})
		if !ok {
			return fmt.Errorf("-quant is not supported by method %q", *method)
		}
		if m, err = qm.WithQuant(*quant); err != nil {
			return err
		}
	}

	cloud, err := vtk.ReadVTPFile(*points)
	if err != nil {
		return err
	}
	ref, name, err := vtk.ReadVTIFile(*like)
	if err != nil {
		return err
	}
	vol, err := recon.ReconstructCloud(ctx, m, cloud, interp.SpecOf(ref))
	if err != nil {
		return err
	}
	if err := vtk.WriteVTIFile(*out, vol, name); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %dx%dx%d reconstructed with %s from %d samples\n",
		*out, vol.NX, vol.NY, vol.NZ, m.Name(), cloud.Len())
	return nil
}

func cmdEvaluate(args []string) (err error) {
	fs := flag.NewFlagSet("evaluate", flag.ExitOnError)
	truthPath := fs.String("truth", "", "ground-truth .vti")
	reconPath := fs.String("recon", "", "reconstructed .vti")
	tf := telemetry.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, finish, err := startTelemetry(fs.Name(), tf, &err)
	if err != nil {
		return err
	}
	defer finish()
	if *truthPath == "" || *reconPath == "" {
		return fmt.Errorf("-truth and -recon are required")
	}

	truth, _, err := vtk.ReadVTIFile(*truthPath)
	if err != nil {
		return err
	}
	recon, _, err := vtk.ReadVTIFile(*reconPath)
	if err != nil {
		return err
	}
	snr, err := metrics.SNR(truth, recon)
	if err != nil {
		return err
	}
	psnr, err := metrics.PSNR(truth, recon)
	if err != nil {
		return err
	}
	rmse, err := metrics.RMSE(truth, recon)
	if err != nil {
		return err
	}
	mae, err := metrics.MAE(truth, recon)
	if err != nil {
		return err
	}
	fmt.Printf("SNR  %.3f dB\nPSNR %.3f dB\nRMSE %.6g\nMAE  %.6g\n", snr, psnr, rmse, mae)
	return nil
}

func cmdRender(args []string) (err error) {
	fs := flag.NewFlagSet("render", flag.ExitOnError)
	in := fs.String("in", "", "input .vti volume")
	slice := fs.Int("slice", -1, "z-slice index (-1 = middle)")
	out := fs.String("o", "slice.ppm", "output .ppm path")
	tf := telemetry.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, finish, err := startTelemetry(fs.Name(), tf, &err)
	if err != nil {
		return err
	}
	defer finish()
	if *in == "" {
		return fmt.Errorf("-in is required")
	}

	v, _, err := vtk.ReadVTIFile(*in)
	if err != nil {
		return err
	}
	k := *slice
	if k < 0 {
		k = v.NZ / 2
	}
	if err := vtk.RenderSlicePPMFile(*out, v, k, 0, 0); err != nil {
		return err
	}
	fmt.Printf("wrote %s (slice z=%d of %dx%dx%d)\n", *out, k, v.NX, v.NY, v.NZ)
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var v int
		if _, err := fmt.Sscanf(part, "%d", &v); err != nil {
			return nil, fmt.Errorf("bad layer width %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no hidden layer widths in %q", s)
	}
	return out, nil
}

func cmdPack(args []string) (err error) {
	fs := flag.NewFlagSet("pack", flag.ExitOnError)
	in := fs.String("in", "", "input .vti volume")
	frac := fs.Float64("frac", 0.01, "sampling fraction (0, 1]")
	method := fs.String("method", "importance", "sampler: importance, random, stratified")
	bits := fs.Int("bits", 16, "value quantization depth [4, 32]")
	seed := fs.Int64("seed", 42, "sampler seed")
	out := fs.String("o", "samples.fvs", "output .fvs path")
	tf := telemetry.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, finish, err := startTelemetry(fs.Name(), tf, &err)
	if err != nil {
		return err
	}
	defer finish()
	if *in == "" {
		return fmt.Errorf("-in is required")
	}

	v, name, err := vtk.ReadVTIFile(*in)
	if err != nil {
		return err
	}
	s, err := sampling.ByName(*method, *seed)
	if err != nil {
		return err
	}
	_, idxs, err := s.Sample(v, name, *frac)
	if err != nil {
		return err
	}
	values := make([]float64, len(idxs))
	for i, idx := range idxs {
		values[i] = v.Data[idx]
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := codec.Encode(f, v, name, idxs, values, codec.Options{ValueBits: *bits}); err != nil {
		//lint:allow errdrop: the encode error is being returned; Close here only releases the fd on a file we will not keep
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	info, err := os.Stat(*out)
	if err != nil {
		return err
	}
	raw := int64(len(idxs)) * 32
	fmt.Printf("wrote %s: %d samples in %d bytes (raw cloud %d bytes, %.1fx smaller)\n",
		*out, len(idxs), info.Size(), raw, float64(raw)/float64(info.Size()))
	return nil
}

func cmdUnpack(args []string) (err error) {
	fs := flag.NewFlagSet("unpack", flag.ExitOnError)
	in := fs.String("in", "", "input .fvs file")
	out := fs.String("o", "points.vtp", "output .vtp path")
	tf := telemetry.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, finish, err := startTelemetry(fs.Name(), tf, &err)
	if err != nil {
		return err
	}
	defer finish()
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	d, err := codec.Decode(f)
	if err != nil {
		return err
	}
	if err := vtk.WriteVTPFile(*out, d.Cloud); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d points from a %dx%dx%d grid (max value error %.3g)\n",
		*out, d.Cloud.Len(), d.NX, d.NY, d.NZ, d.MaxError)
	return nil
}

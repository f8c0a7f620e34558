// Fingerprinting: implement the paper's §9 future-work proposal — reduce
// each job's power profile to a feature vector, cluster fingerprints into
// power portraits, and evaluate portrait-based prediction of queued-job
// max power against a global baseline.
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/core"
)

func main() {
	log.SetFlags(0)
	cfg := repro.ScaledConfig(160, 8*time.Hour)
	cfg.Seed = 17
	data, _, err := core.CollectRun(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fps, err := core.BuildFingerprints(data.Source())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fingerprinted %d jobs (features: power/node, swing, dominant freq, GPU share)\n\n", len(fps))

	portraits, err := core.ClusterFingerprints(fps, 5, 9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("power portraits (k-means clusters of job fingerprints):")
	for i, p := range portraits {
		c := p.Centroid
		fmt.Printf("  portrait %d: %3d jobs  mean %.0f W/node  max %.0f W/node  swing %.2f  GPU share %.2f\n",
			i+1, len(p.Members), c[0]*2300, c[1]*2300, c[2], c[5])
	}

	pred, err := core.EvaluateFingerprintPrediction(fps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmax-power prediction (leave-one-out by project):\n")
	fmt.Printf("  portrait-based error: %.1f%%\n", pred.MeanAbsErrFrac*100)
	fmt.Printf("  global baseline:      %.1f%%\n", pred.BaselineErrFrac*100)
	fmt.Printf("  improvement:          %.0f%%\n", pred.Improvement*100)
	if pred.Improvement > 0 {
		fmt.Println("\nthe portrait signal beats the global baseline, supporting the paper's")
		fmt.Println("premise that queue metadata mediated by fingerprints aids prediction.")
	} else {
		fmt.Println("\nat this tiny scale the leave-one-out portraits are too noisy to beat")
		fmt.Println("the baseline — rerun with more nodes/hours to densify the projects.")
	}
}

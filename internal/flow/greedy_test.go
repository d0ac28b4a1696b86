package flow_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"batchals/internal/bench"
	"batchals/internal/core"
	"batchals/internal/flow"
	"batchals/internal/snap"
	"batchals/internal/stoch"
	"batchals/internal/wu"
)

// TestGreedyFlowsPinnedOutputs pins the accepted-move count, final area,
// final error and final netlist of the wu, snap and stoch flows at M=1024,
// seed 1 (stoch: 100 moves). The values were recorded before the three
// flows moved onto the shared driver, which must reproduce them exactly.
func TestGreedyFlowsPinnedOutputs(t *testing.T) {
	const (
		er  = core.MetricER
		aem = core.MetricAEM
	)
	cases := []struct {
		flow      string
		circuit   string
		metric    core.Metric
		threshold float64
		useBatch  bool
		iters     int
		area      float64
		err       float64
		digest    string
	}{
		{"wu", "c880", er, 0.01, true, 47, 591, 0.0087890625, "e79ce976d5917ff5b9e44e39f8bbad36e1b04fecbbd7d9083ff969374321a320"},
		{"snap", "c880", er, 0.01, true, 20, 545, 0.0087890625, "948bfb5a71bf144e23c8d552aeb77140dd745798b6bf3b6d7b9273ea0f874de6"},
		{"wu", "c880", er, 0.01, false, 34, 627, 0.0087890625, "b35925de70d2b7e3616cbd7e2c68a7411fca05e41aae405792fc15df10d939a8"},
		{"snap", "c880", er, 0.01, false, 15, 581, 0.0048828125, "e0d99940dc9f616749a5df33b4472ca7302fc72f854a972e87354e2627357cb3"},
		{"stoch", "c880", er, 0.01, false, 45, 624, 0.009765625, "6a051a22ffcfc51adccc7a506f9376e81c73095d82c736c5358b3bb43f210c75"},
		{"wu", "c880", aem, 8192, true, 125, 287, 8044.9521484375, "cfd29d7fbc1881a928d3d00a35d0f9a3501ddde287e531b84bf12498a6e3ce19"},
		{"snap", "c880", aem, 8192, true, 60, 206, 7512.5283203125, "6facc1f0fe997bc04ed49da60bdb5798a554b1e516de69285e9ec7422e2ee925"},
		{"wu", "c880", aem, 8192, false, 33, 631, 17.0625, "dc0aa04810a0a740e2707d529031275012d7af54ac039f7f5cbc723bba06ec62"},
		{"snap", "c880", aem, 8192, false, 18, 555, 6168.1279296875, "2db547a7bdcb65ef767973e80d6d1577226be7195772f1e55ad21198f908cddf"},
		{"stoch", "c880", aem, 8192, false, 100, 324, 5929.1376953125, "7d38a6fe4e3fc8bd8fb1e2cc1247dfd031fa4e5a52d445124f6542bdec26dabe"},
		{"wu", "mul8", er, 0.05, true, 6, 1132, 0.0419921875, "944e94971f540bb0b5a56e6d76bb0e0b1ea4273233fa3977c362bc399bed73cb"},
		{"snap", "mul8", er, 0.05, true, 6, 1132, 0.0419921875, "944e94971f540bb0b5a56e6d76bb0e0b1ea4273233fa3977c362bc399bed73cb"},
		{"wu", "mul8", er, 0.05, false, 6, 1132, 0.0439453125, "d8fec5448c98146b952735a915b3b51d8119630fad720fecc0f0122d5b0fffd7"},
		{"snap", "mul8", er, 0.05, false, 6, 1132, 0.0439453125, "d8fec5448c98146b952735a915b3b51d8119630fad720fecc0f0122d5b0fffd7"},
		{"stoch", "mul8", er, 0.05, false, 4, 1153, 0.0498046875, "3d0620ddb2ad43443548ab6a7936a665a8ffeb6def29afc6fc03b7c40d471747"},
		{"wu", "mul8", aem, 64, true, 18, 1087, 35.806640625, "c073b6d2c97db68929fe4c59f9fdcb19d72cd57057ffef2d6662d473af22c185"},
		{"snap", "mul8", aem, 64, true, 17, 1023, 24.642578125, "72fb5659708c80222596bcb929fdf2a97a5e14b57f4ca896c33f4c81c0478aee"},
		{"wu", "mul8", aem, 64, false, 4, 1144, 10.875, "f67a31b1d274b9c2bcbb1ce14390877c0a96fdb58e6f2b421ac0ceade6a6e465"},
		{"snap", "mul8", aem, 64, false, 4, 1144, 10.875, "f67a31b1d274b9c2bcbb1ce14390877c0a96fdb58e6f2b421ac0ceade6a6e465"},
		{"stoch", "mul8", aem, 64, false, 14, 1100, 61.861328125, "83e4e169bb36c80fed6d4650f9f7063877f8fbbcd47a83706f73f9f53e118497"},
		{"wu", "rca8", aem, 4, true, 5, 120, 2.607421875, "e2dfc3cbfbcffb961c8c52de672a9ada56a0abe7bd7da593e0448251ae74f894"},
		{"snap", "rca8", aem, 4, true, 5, 99, 3.3515625, "b99e842ac43468ae6b503b0482c202bdde8103318bd5626b696c635632bfdb3d"},
		{"wu", "rca8", aem, 4, false, 3, 123, 3.4375, "168621255c061704d90452e345448acea6aa1b2f41f0dedaf1da46835e673c66"},
		{"snap", "rca8", aem, 4, false, 2, 129, 1.359375, "a516e86f1ce8afac83957ce2fa81cbf09fa2586111b757d89856f81846e5f97b"},
		{"stoch", "rca8", aem, 4, false, 13, 91, 3.7890625, "0ab5b3a82a42c89efbc62b6bdf1baf7958a7f406531d56f792df9a5f7c0da3e1"},
	}
	for _, c := range cases {
		name := fmt.Sprintf("%s/%s/%v/batch=%v", c.flow, c.circuit, c.metric, c.useBatch)
		t.Run(name, func(t *testing.T) {
			golden, err := bench.ByName(c.circuit)
			if err != nil {
				t.Fatal(err)
			}
			b := flow.Budget{Metric: c.metric, Threshold: c.threshold, NumPatterns: 1024, Seed: 1}
			var res *flow.Result
			switch c.flow {
			case "wu":
				res, err = wu.Run(golden, wu.Config{Budget: b, UseBatch: c.useBatch})
			case "snap":
				res, err = snap.Run(golden, snap.Config{Budget: b, UseBatch: c.useBatch})
			case "stoch":
				var sr *stoch.Result
				sr, err = stoch.Run(golden, stoch.Config{Metric: c.metric, Threshold: c.threshold,
					NumPatterns: 1024, Seed: 1, Moves: 100})
				if err == nil {
					res = &sr.Result
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			digest := fmt.Sprintf("%x", sha256.Sum256([]byte(res.Approx.Dump())))
			if res.NumIterations != c.iters || res.FinalArea != c.area || res.FinalError != c.err || digest != c.digest {
				t.Errorf("got iters %d area %v err %v digest %s\nwant iters %d area %v err %v digest %s",
					res.NumIterations, res.FinalArea, res.FinalError, digest, c.iters, c.area, c.err, c.digest)
			}
		})
	}
}

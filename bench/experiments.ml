(* The experiment suite's table of contents: one registration per
   quantitative claim of the paper (see DESIGN.md §5 and
   EXPERIMENTS.md for the paper-vs-measured record). The bodies live
   in the per-section modules:

     E_structure  — tree shape: height, memory, splits, root election,
                    containment awareness, fan-out
     E_pubsub     — join/publish cost, accuracy, dimensionality,
                    oracle/reorganization ablations, filter sets
     E_churn      — fault recovery, stabilization modes + telemetry,
                    churn, leave variants, message loss, Chord
     E_baselines  — §4 related-work router comparisons
     E_scale      — laptop-scale stress
     E_agg        — in-network aggregation (lib/agg): traffic vs
                    flooding under the TiNA tolerance, error under
                    churn/loss
     E_fd         — heartbeat failure detection (lib/fd): latency,
                    repair completion, heartbeat overhead
     E_forest     — sharded rendezvous forest (DESIGN.md §14):
                    per-root load vs shard count *)

let register () =
  Harness.register "E1" "height is O(log_m N)" E_structure.e1;
  Harness.register "E2" "memory is O(M log^2 N / log m)" E_structure.e2;
  Harness.register "E3" "join cost is logarithmic" E_pubsub.e3;
  Harness.register "E4" "publication cost is logarithmic" E_pubsub.e4;
  Harness.register "E5" "false positives 2-3%, zero false negatives"
    E_pubsub.e5;
  Harness.register "E6" "split policy comparison" E_structure.e6;
  Harness.register "E7" "stabilization cost after faults" E_churn.e7;
  Harness.register "E7B" "shared-state vs message-passing repair" E_churn.e7b;
  Harness.register "E8" "churn resistance (Lemma 3.7)" E_churn.e8;
  Harness.register "E9" "comparison against baseline routers" E_baselines.e9;
  Harness.register "E10" "root election (Fig. 6)" E_structure.e10;
  Harness.register "E11" "containment awareness properties" E_structure.e11;
  Harness.register "E13" "leave repair: lazy vs subtree reconnection"
    E_churn.e13;
  Harness.register "E14" "dimensionality sweep" E_pubsub.e14;
  Harness.register "E15" "contact-oracle ablation" E_pubsub.e15;
  Harness.register "E16" "FP-driven reorganization ablation" E_pubsub.e16;
  Harness.register "E17" "false-positive rate vs N" E_pubsub.e17;
  Harness.register "E18" "resilience to message loss" E_churn.e18;
  Harness.register "E19" "churn: DR-tree vs Chord rendezvous" E_churn.e19;
  Harness.register "E20" "gossip overlay accuracy vs convergence"
    E_baselines.e20;
  Harness.register "E21" "filter sets vs one leaf per filter" E_pubsub.e21;
  Harness.register "E22" "fan-out (m/M) sweep" E_structure.e22;
  Harness.register "E23" "laptop-scale stress" E_scale.e23;
  Harness.register "E24" "aggregation traffic vs flooding (tct sweep)"
    E_agg.e24;
  Harness.register "E25" "aggregate error under churn and message loss"
    E_agg.e25;
  Harness.register "E26" "repair scheduling: full sweep vs incremental"
    E_scale.e26;
  Harness.register "E28" "heartbeat failure detection: latency and overhead"
    E_fd.e28;
  Harness.register "E29" "rendezvous forest: per-root load vs shard count"
    E_forest.e29;
  Harness.register "E30" "forest-native aggregation: exactness and merges"
    E_agg.e30

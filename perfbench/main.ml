(* The benchmark: runs one workload for a fixed wall-clock budget and
   prints its metrics, ending with one JSON result line.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--nproc P]

   --trace 0 times the untraced unit and reports the end-to-end metrics;
   --trace 1 replays the unit through the profiling hooks and the
   isolated layer probes and reports the per-layer metrics.  Every
   virtual-time and count metric must come out identical across every
   repeat and between the untraced and traced runs; a mismatch or a
   failed correctness gate fails the run (exit 1). *)

open Util
open Workloads

(* Every per-layer metric, in output order.  A workload that bypasses a
   layer reports 0 for its counts and self times; the isolated probes
   run everywhere. *)
let per_layer_units =
  [
    ("engine.events_per_txn", "count");
    ("engine.ns_per_event", "ns");
    ("engine.self_s", "s");
    ("net.ns_per_send", "ns");
    ("net.self_s", "s");
    ("net.bounced_per_txn", "count");
    ("protocol.txn_ns.failure_free", "ns");
    ("protocol.txn_ns.partitioned", "ns");
    ("protocol.self_s", "s");
    ("termination.invocations_per_ktxn", "count");
    ("termination.probes_per_txn", "count");
    ("storage.commit_path_ns", "ns");
    ("storage.recover_ns_per_record.epoch", "ns");
    ("storage.recover_ns_per_record.steady", "ns");
    ("storage.wal_records_per_txn", "count");
    ("recovery.redone", "count");
    ("recovery.in_doubt", "count");
    ("recovery.aborted", "count");
    ("telemetry.overhead_s", "s");
    ("telemetry.snapshots", "count");
    ("metrics.snapshot_ns", "ns");
    ("metrics.update_ns", "ns");
    ("auditor.record_ns.empty", "ns");
    ("auditor.record_ns.full", "ns");
    ("auditor.self_s", "s");
    ("scheduler.admit_ns", "ns");
    ("scheduler.queue_wait_p99_T", "T");
    ("runtime.time_ratio_2h", "ratio");
    ("runtime.heap_ratio_2h", "ratio");
    ("locks.self_s", "s");
    ("locks.peak_waiters", "count");
    ("locks.deadlock_check_ns", "ns");
    ("locks.wait_p99_T", "T");
    ("locks.deadlocks_resolved", "count");
    ("gc.alloc_bytes_per_txn", "B");
    ("gc.minor_per_ktxn", "count");
    ("gc.major_collections", "count");
    ("prof.residual_share", "ratio");
    ("ladder.gap_share", "ratio");
    ("trace.overhead_ratio", "ratio");
    ("trace.txns_per_s.traced", "1/s");
    ("trace.txns_per_s.untraced", "1/s");
    ("commit.samples", "count");
    ("host.nproc", "count");
    ("host.recommended_domains", "count");
  ]

let usage =
  "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--nproc P]"

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

(* Set-up (input generation) is timed in batches of at least 20 ms,
   each started from a collected heap.  [setup_batch] sizes the batch
   and returns a function timing one batch: raw and rescaled seconds per
   set-up. *)
let setup_batch (w : Workloads.t) seed =
  let batch = ref 1 in
  let run_batch () =
    Gc.full_major ();
    let before = time_reference () in
    let wall =
      snd (timed (fun () -> for _ = 1 to !batch do ignore (w.prepare seed) done))
      /. float_of_int !batch
    in
    (wall, normalise ~before ~after:(time_reference ()) wall)
  in
  while fst (run_batch ()) *. float_of_int !batch < 0.02 do
    batch := !batch * 2
  done;
  run_batch

(* Repeats [f] for at least [budget] seconds and [min_runs] runs. *)
let repeat ~budget ~min_runs f =
  let stop = now () +. budget in
  let rec go acc count =
    if count >= min_runs && now () >= stop then List.rev acc
    else go (f () :: acc) (count + 1)
  in
  go [] 0

let warmup_s = 1.

let mismatch what = prerr_endline ("determinism check failed: " ^ what)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 in
  let trace = ref 0 and nproc = ref 0 and horizon_probe = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S wall-clock budget of the timed loop");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--nproc", Arg.Set_int nproc, "P processors online, recorded as reported");
      ( "--horizon-probe",
        Arg.Set_int horizon_probe,
        "H internal: time one steady run at horizon H (in T) and exit" );
    ]
    (fun a -> fail "unexpected argument %s\n%s" a usage)
    usage;
  if !horizon_probe > 0 then begin
    run_horizon_probe ~seed:(Int64.of_int !seed) !horizon_probe;
    exit 0
  end;
  let w =
    match List.find_opt (fun w -> String.equal w.name !workload) Workloads.all with
    | Some w -> w
    | None ->
        fail "unknown workload %S; one of: %s" !workload
          (String.concat ", " (List.map (fun w -> w.name) Workloads.all))
  in
  if !seconds < 1 then fail "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  let traced_mode = !trace = 1 in
  let seed = Int64.of_int !seed in
  let p = w.prepare seed in
  (* Warm-up: the first unit fills caches and sets the heap high-water
     mark, before anything whose repeat count depends on timing; more
     units follow until the host has run this load for [warmup_s] (its
     clock speed settles after about a second of work). *)
  let chunks = Array.of_list p.chunks in
  let first, first_walls = Array.split (Array.map (fun chunk -> timed chunk) chunks) in
  (* Longer chunks get longer kernel bursts around them: about 5 ms of
     kernel per 50 ms of chunk. *)
  let reference_runs =
    Array.map (fun wall -> max 1 (int_of_float (wall /. 0.05))) first_walls
  in
  let settled0 = Array.fold_left (fun acc (n, _) -> acc + n) 0 first in
  let key0 = join_keys (Array.to_list (Array.map snd first)) in
  let peak_heap_mb = heap_mb () in
  let deterministic = ref true in
  (* One unit: every chunk, each timed on its own from a collected heap
     and between two runs of the reference kernel, so the repeats differ
     only in what the host does to them.  Returns the raw and the
     rescaled wall time of each chunk. *)
  let unit_run () =
    let gc = ref no_gc in
    let refs = Array.make (Array.length chunks + 1) 0. in
    let walls =
      Array.mapi
        (fun i chunk ->
          Gc.full_major ();
          refs.(i) <- time_reference ~runs:reference_runs.(i) ();
          let (result, d), wall = timed (fun () -> gc_delta chunk) in
          if result <> first.(i) then begin
            mismatch "a timed repeat differs from the first";
            deterministic := false
          end;
          gc := add_gc !gc d;
          wall)
        chunks
    in
    let last = Array.length chunks in
    refs.(last) <- time_reference ~runs:reference_runs.(last - 1) ();
    let scaled =
      Array.mapi (fun i wall -> normalise ~before:refs.(i) ~after:refs.(i + 1) wall) walls
    in
    (walls, scaled, !gc)
  in
  ignore (repeat ~budget:warmup_s ~min_runs:0 unit_run);
  (* One set-up batch follows every timed unit, and [setup_s] is the
     median rescaled batch: the estimator [txns_per_s] uses, over the
     same stretch of wall time. *)
  let setup_run = setup_batch w seed in
  let setup_samples = ref [] in
  let timed_unit () =
    let u = unit_run () in
    setup_samples := setup_run () :: !setup_samples;
    u
  in
  let reference = p.reference () in
  if not (String.equal reference.key key0) then begin
    mismatch "replay summary differs from the timed unit's";
    deterministic := false
  end;
  let budget = float_of_int !seconds in
  let untraced =
    repeat ~budget:(if traced_mode then budget /. 2. else budget) ~min_runs:3 timed_unit
  in
  let setup_s = median (List.map snd !setup_samples) in
  let sum = Array.fold_left ( +. ) 0. in
  Printf.printf "unit walls, raw / rescaled (s):%s\n"
    (String.concat ""
       (List.map
          (fun (walls, scaled, _) -> Printf.sprintf " %.3f/%.3f" (sum walls) (sum scaled))
          untraced));
  (* The unit's raw cost: each chunk's fastest raw repeat, summed; the
     base of the per-layer wall figures. *)
  let wall =
    sum (Array.mapi (fun i _ -> best (List.map (fun (walls, _, _) -> walls.(i)) untraced)) chunks)
  in
  let raw_tps = float_of_int settled0 /. wall in
  (* The end-to-end cost: each chunk's median rescaled repeat, summed. *)
  let scaled_wall =
    sum (Array.mapi (fun i _ -> median (List.map (fun (_, scaled, _) -> scaled.(i)) untraced)) chunks)
  in
  let tps = float_of_int settled0 /. scaled_wall in
  let o = reference in
  let gates_ok = correct o in
  let p50, p99, samples =
    match o.commit with
    | Some s -> (in_t s.Stats.p50, in_t s.p99, s.count)
    | None -> (0., 0., 0)
  in
  let end_to_end =
    [
      metric "txns_per_s" "1/s" tps;
      metric "peak_heap_mb" "MB" peak_heap_mb;
      metric "setup_s" "s" setup_s;
      metric "commit_p50_T" "T" p50;
      metric "commit_p99_T" "T" p99;
      metric "commit_ratio" "ratio" (ratio o.committed o.ops);
      metric "msgs_per_txn" "count" (ratio o.msgs o.settled);
    ]
  in
  Printf.printf "workload %s seed %Ld: ops=%d ops_failed=%d per unit, %d timed units\n"
    w.name seed o.ops o.ops_failed (List.length untraced);
  List.iter (fun (g, ok) -> Printf.printf "  gate %-16s %s\n" g (if ok then "pass" else "FAIL")) o.gates;
  let per_layer =
    if not traced_mode then []
    else begin
      let traced_runs =
        repeat ~budget:(budget /. 2.) ~min_runs:1 (fun () ->
            Gc.full_major ();
            let tr, wall = timed p.traced in
            if not (String.equal (fingerprint tr.outcome) (fingerprint o)) then begin
              mismatch "the traced replay differs from the untraced run";
              deterministic := false
            end;
            (tr, wall))
      in
      (* Self times come from the least disturbed traced unit. *)
      let tr, traced_wall =
        List.fold_left
          (fun (b, bw) (t, w) -> if w < bw then (t, w) else (b, bw))
          (List.hd traced_runs) traced_runs
      in
      let traced_tps = float_of_int o.settled /. traced_wall in
      let self name =
        match tr.prof with
        | Some r -> bucket_seconds r name
        (* No profiler hook: all time is residual. *)
        | None -> if String.equal name "engine" then traced_wall else 0.
      in
      let residual_share =
        match tr.prof with
        | Some r when r.Prof.total_seconds > 0. ->
            bucket_seconds r "engine" /. r.total_seconds
        | Some _ | None -> 1.
      in
      let _, _, gc = List.hd untraced in
      let probes = p.probes () in
      let depth = p.depth () in
      Printf.printf "  pending-event depth for the engine probe: %d\n" depth;
      let l =
        Ladder.measure ~n:w.n ~depth ~waiters:tr.peak_waiters ~lock_specs:p.lock_specs
      in
      let count name =
        match List.find_opt (fun (m : metric) -> String.equal m.name name) o.counts with
        | Some m -> m.value
        | None -> 0.
      in
      let settled = float_of_int o.settled in
      let n = float_of_int w.n in
      let explained_ns =
        (count "engine.events_per_txn" *. settled *. l.engine_ns)
        +. (float_of_int o.msgs *. l.net_ns)
        +.
        match w.kind with
        | Grid -> 0.
        | Db -> float_of_int o.committed *. n *. l.commit_path_ns
        | Cluster ->
            (float_of_int o.committed *. n *. l.commit_path_ns)
            +. (settled *. n *. l.record_full_ns)
            +. (float_of_int o.ops *. l.admit_ns)
            +. (count "telemetry.snapshots" *. l.snapshot_ns)
      in
      let measured =
        o.counts @ tr.hooks @ probes
        @ [
            metric "engine.ns_per_event" "ns" l.engine_ns;
            metric "engine.self_s" "s" (self "engine");
            metric "net.ns_per_send" "ns" l.net_ns;
            metric "net.self_s" "s" (self "network");
            metric "protocol.txn_ns.failure_free" "ns" l.txn_ns_failure_free;
            metric "protocol.txn_ns.partitioned" "ns" l.txn_ns_partitioned;
            metric "protocol.self_s" "s" (self "protocol");
            metric "storage.commit_path_ns" "ns" l.commit_path_ns;
            metric "storage.recover_ns_per_record.epoch" "ns" l.recover_epoch_ns;
            metric "storage.recover_ns_per_record.steady" "ns" l.recover_steady_ns;
            metric "metrics.snapshot_ns" "ns" l.snapshot_ns;
            metric "metrics.update_ns" "ns" l.update_ns;
            metric "auditor.record_ns.empty" "ns" l.record_empty_ns;
            metric "auditor.record_ns.full" "ns" l.record_full_ns;
            metric "auditor.self_s" "s" (self "auditor");
            metric "scheduler.admit_ns" "ns" l.admit_ns;
            metric "locks.self_s" "s" (self "lock-manager");
            metric "locks.deadlock_check_ns" "ns" l.deadlock_ns;
            metric "gc.alloc_bytes_per_txn" "B" (gc.alloc_bytes /. settled);
            metric "gc.minor_per_ktxn" "count" (1000. *. float_of_int gc.minor /. settled);
            metric "gc.major_collections" "count" (float_of_int gc.major);
            metric "prof.residual_share" "ratio" residual_share;
            metric "ladder.gap_share" "ratio" (1. -. (explained_ns /. 1e9 /. wall));
            metric "trace.overhead_ratio" "ratio" (traced_tps /. raw_tps);
            metric "trace.txns_per_s.traced" "1/s" traced_tps;
            metric "trace.txns_per_s.untraced" "1/s" raw_tps;
            metric "commit.samples" "count" (float_of_int samples);
            metric "host.nproc" "count" (float_of_int !nproc);
            metric "host.recommended_domains" "count"
              (float_of_int (Domain.recommended_domain_count ()));
          ]
      in
      List.iter
        (fun (m : metric) ->
          if not (List.mem_assoc m.name per_layer_units) then
            failwith ("metric missing from the per-layer list: " ^ m.name))
        measured;
      Printf.printf "  traced wall %.3f s vs untraced %.3f s\n" traced_wall wall;
      if w.kind = Db then
        print_endline
          "  note: Tm brackets only the network and the lock manager: its \
           deadlock search runs outside the lock-manager bracket (engine.self_s), \
           and protocol handlers run inside network deliveries (net.self_s)";
      List.map
        (fun (name, unit_) ->
          match List.find_opt (fun (m : metric) -> String.equal m.name name) measured with
          | Some m -> m
          | None -> metric name unit_ 0.)
        per_layer_units
    end
  in
  let correct = gates_ok && !deterministic in
  let metrics = if traced_mode then per_layer else end_to_end in
  List.iter (fun (m : metric) -> Printf.printf "  %-40s %.6g %s\n" m.name m.value m.unit_) metrics;
  if traced_mode then Printf.printf "  commit latency samples: %d\n" samples
  else Printf.printf "  commit latency samples: %d (p50 and p99 above)\n" samples;
  let units = List.length untraced in
  let attempted = o.ops * units in
  let failed = if correct then o.ops_failed * units else attempted in
  print_endline (result_line ~correct ~attempted ~failed metrics);
  if not correct then exit 1

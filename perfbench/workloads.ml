(* The four benchmark workloads.  Each one derives its inputs from the
   seed ([prepare], timed as set-up), runs the untraced unit that the
   timed loop repeats through the entry point a user would call, and
   replays the same unit through the existing profiling hooks for the
   per-layer numbers.  Units are split into independent chunks of about
   10-20 ms where the workload allows (steady-telemetry is one run),
   each timed on its own between runs of the reference kernel (see
   [Util.normalise]). *)

open Util
module Stats = Commit_checker.Stats

let t_unit = Vtime.of_int 1000
let t k = Vtime.of_int (k * Vtime.to_int t_unit)
let in_t ticks = float_of_int ticks /. float_of_int (Vtime.to_int t_unit)
let protocol = Registry.get "termination-transient"

type outcome = {
  ops : int;  (** offered transactions, or grid runs *)
  ops_failed : int;
  settled : int;  (** the [txns_per_s] numerator *)
  committed : int;
  msgs : int;  (** wire messages sent *)
  commit : Stats.t option;  (** admission -> last site decided, ticks *)
  gates : (string * bool) list;
  counts : metric list;  (** deterministic per-layer counts *)
  key : string;
      (** the user-facing summary every repeat of the unit must
          reproduce byte for byte *)
}

type traced = {
  outcome : outcome;
  prof : Prof.report option;
  hooks : metric list;  (** counts only the tracing hooks can see *)
  peak_waiters : int;  (** peak of [gauge.lock_waiters], summed over sites *)
}

type prepared = {
  reference : unit -> outcome;
      (** every chunk, untimed; its [key] joins the chunks' keys *)
  chunks : (unit -> int * string) list;
      (** the timed unit as independent pieces, each timed on its own:
          settled count and summary key *)
  traced : unit -> traced;
  probes : unit -> metric list;
      (** workload-specific traced-run measurements (steady only) *)
  depth : unit -> int;
      (** peak pending-event depth of one untimed replay: the messages
          in flight, measured from its Obs flow records (its network tap
          on checker-grid), plus an estimate of the timers pending
          beside them *)
  lock_specs : Tm.txn_spec list;
      (** arrivals the deadlock probe piles up; [[]] where no lock
          manager runs *)
}

type kind = Cluster | Grid | Db

type t = { name : string; kind : kind; n : int; prepare : int64 -> prepared }

let correct o = List.for_all snd o.gates

(* Every virtual-time and count metric of a unit, rendered; the timed
   repeats and the traced replay must reproduce it exactly. *)
let fingerprint o =
  let b = Buffer.create 512 in
  Printf.bprintf b "ops=%d failed=%d settled=%d committed=%d msgs=%d" o.ops
    o.ops_failed o.settled o.committed o.msgs;
  (match o.commit with
  | Some s ->
      Printf.bprintf b " commit=%d/%d/%d/%d" s.Stats.count s.p50 s.p99 s.max
  | None -> Buffer.add_string b " commit=none");
  List.iter (fun (g, ok) -> Printf.bprintf b " %s=%b" g ok) o.gates;
  List.iter
    (fun (m : metric) -> Printf.bprintf b " %s=%s" m.name (json_number m.value))
    o.counts;
  Printf.bprintf b " key=%s" (Digest.to_hex (Digest.string o.key));
  Buffer.contents b

(* Seed of the [i]-th independent chunk of a unit. *)
let sub_seed seed i = Int64.add (Int64.mul seed 1024L) (Int64.of_int i)

let join_keys = String.concat "\n"

let per settled x = if settled = 0 then 0. else x /. float_of_int settled

let p99_t = function Some s -> in_t s.Stats.p99 | None -> 0.

let counter_list m =
  String.concat ","
    (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (Metrics.counters m))

let stats_key = function
  | None -> "-"
  | Some s ->
      Printf.sprintf "%d:%d:%d:%d:%d:%d:%.17g" s.Stats.count s.min s.p50 s.p90
        s.p99 s.max s.mean

(* -------------------------------------------------------------------- *)
(* steady-telemetry                                                      *)

let steady_load = 240
let steady_window = 8
let steady_horizon_t = 3000

let steady_config ?(horizon_t = steady_horizon_t) ~seed () =
  {
    (Runtime.default_config ~protocol ~n:3 ()) with
    Runtime.seed;
    duration = t horizon_t;
    load = steady_load;
    window = steady_window;
    snapshot_every = Some (t 10);
  }

(* Transactions a steady run offers (and, with its gates green,
   settles): the ladder sizes its history-dependent probes from it. *)
let steady_txns = steady_load * steady_horizon_t / 100

let runtime_key (r : Runtime.report) =
  Printf.sprintf
    "offered=%d admitted=%d rejected=%d starved=%d committed=%d aborted=%d \
     torn=%d blocked=%d settled=%d term=%d probes=%d events=%d sent=%d \
     delivered=%d bounced=%d lost=%d lat=%s wait=%s counters=%s"
    r.offered r.admitted r.rejected r.starved r.committed r.aborted r.torn
    r.blocked r.settled r.termination_invocations r.probes r.events_run
    r.net_stats.Network.sent r.net_stats.delivered r.net_stats.bounced
    r.net_stats.lost (stats_key r.latency) (stats_key r.queue_wait)
    (counter_list r.metrics)

let runtime_outcome (r : Runtime.report) =
  let settled = r.settled in
  let c name = float_of_int (Metrics.counter r.metrics name) in
  {
    ops = r.offered;
    ops_failed = r.torn + r.blocked + r.rejected + r.starved;
    settled;
    committed = r.committed;
    msgs = r.net_stats.Network.sent;
    commit = r.latency;
    gates = [ ("atomic", Runtime.atomic r) ];
    counts =
      [
        metric "engine.events_per_txn" "count"
          (per settled (float_of_int r.events_run));
        metric "net.bounced_per_txn" "count"
          (per settled (float_of_int r.net_stats.bounced));
        metric "termination.invocations_per_ktxn" "count"
          (per settled (1000. *. float_of_int r.termination_invocations));
        metric "termination.probes_per_txn" "count"
          (per settled (float_of_int r.probes));
        metric "recovery.redone" "count" (c "recovery.redone");
        metric "recovery.in_doubt" "count" (c "recovery.in_doubt");
        metric "recovery.aborted" "count" (c "recovery.aborted");
        metric "scheduler.queue_wait_p99_T" "T" (p99_t r.queue_wait);
        metric "telemetry.snapshots" "count"
          (float_of_int (List.length r.snapshots));
      ];
    key = runtime_key r;
  }

(* Wall time and heap high-water mark of a steady run at [horizon_t],
   measured by this executable in a child process (see [main.ml]). *)
let horizon_probe ~seed horizon_t =
  let argv =
    [|
      Sys.executable_name;
      "--horizon-probe";
      string_of_int horizon_t;
      "--seed";
      Int64.to_string seed;
    |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let line = In_channel.input_all ic in
  match (Unix.close_process_in ic, String.split_on_char ' ' (String.trim line)) with
  | Unix.WEXITED 0, [ wall; heap ] -> (float_of_string wall, float_of_string heap)
  | _ -> failwith ("horizon probe failed: " ^ line)

(* The child side of [horizon_probe]: the faster of two runs, and the
   process's heap high-water mark. *)
let run_horizon_probe ~seed horizon_t =
  let config = steady_config ~horizon_t ~seed () in
  let wall () = snd (timed (fun () -> Runtime.run config)) in
  let w = Float.min (wall ()) (wall ()) in
  Printf.printf "%.17g %.17g\n" w (heap_mb ())

let steady =
  let n = 3 in
  let prepare seed =
    let config = steady_config ~seed () in
    {
      reference = (fun () -> runtime_outcome (Runtime.run config));
      chunks =
        [
          (fun () ->
            let r = Runtime.run config in
            (r.Runtime.settled, runtime_key r));
        ];
      traced =
        (fun () ->
          let r =
            Runtime.run ~obs:(Obs.create ()) { config with Runtime.profile = true }
          in
          {
            outcome = runtime_outcome r;
            prof = r.profile;
            hooks = [];
            peak_waiters = 0;
          });
      (* Timers: about one per site for each transaction in the
         window. *)
      depth =
        (fun () ->
          let obs = Obs.create () in
          ignore (Runtime.run ~obs config);
          peak_in_flight obs + (steady_window * n));
      lock_specs = [];
      probes =
        (fun () ->
          (* Telemetry on vs off, toggled through the config, and the
             same run at twice the horizon: the history-proportional
             costs this workload exists to expose.  The horizon legs
             run in fresh processes, since a heap high-water mark
             cannot be reset. *)
          let walls cfg =
            best
              (List.init 5 (fun _ ->
                   Gc.full_major ();
                   snd (timed (fun () -> Runtime.run cfg))))
          in
          let with_snaps = walls config in
          let without = walls { config with Runtime.snapshot_every = None } in
          let wall_h, heap_h = horizon_probe ~seed steady_horizon_t in
          let wall_2h, heap_2h = horizon_probe ~seed (2 * steady_horizon_t) in
          [
            metric "telemetry.overhead_s" "s" (with_snaps -. without);
            metric "runtime.time_ratio_2h" "ratio" (wall_2h /. wall_h);
            metric "runtime.heap_ratio_2h" "ratio" (heap_2h /. heap_h);
          ]);
    }
  in
  { name = "steady-telemetry"; kind = Cluster; n; prepare }

(* -------------------------------------------------------------------- *)
(* soak-faults                                                           *)

(* A unit is [soak_chunks] soaks of [soak_epochs] epochs each, with
   seeds derived from the workload seed: short enough pieces to time on
   a noisy host, and enough epochs in all for steady commit metrics. *)
let soak_chunks = 48
let soak_epochs = 8

let soak_config ~seed =
  {
    (Soak.default_config ~base:(Runtime.default_config ~protocol ~n:3 ()) ())
    with
    Soak.seed;
    epochs = soak_epochs;
    faults = true;
  }

(* Transactions one soak epoch offers: the recovery probe's WAL
   length. *)
let epoch_txns =
  let c = soak_config ~seed:1L in
  c.Soak.base.Runtime.load * Vtime.to_int c.Soak.segment
  / (100 * Vtime.to_int t_unit)

let soak_key (s : Soak.summary) =
  Printf.sprintf
    "epochs=%d ticks=%d offered=%d admitted=%d committed=%d aborted=%d \
     torn=%d blocked=%d settled=%d crashes=%d recoveries=%d cuts=%d \
     conserved=%d failures=%s lat=%s counters=%s"
    s.epochs_run s.ticks s.offered s.admitted s.committed s.aborted s.torn
    s.blocked s.settled s.crashes s.recoveries s.cut_phases s.conserved_epochs
    (String.concat "," s.failures)
    (stats_key (Metrics.histogram s.metrics "latency.commit"))
    (counter_list s.metrics)

let soak =
  let n = 3 in
  let prepare seed =
    let configs = List.init soak_chunks (fun i -> soak_config ~seed:(sub_seed seed i)) in
    let epochs =
      List.map
        (fun c -> List.init c.Soak.epochs (fun epoch -> (epoch, Soak.epoch_config c ~epoch)))
        configs
    in
    (* The replay: every epoch through [Runtime.run], merged the way
       [Soak.run] merges, plus the wire and engine counts [Soak.summary]
       does not carry. *)
    let replay run =
      let sent = ref 0 and bounced = ref 0 in
      let events = ref 0 and term = ref 0 and probes = ref 0 in
      let prof = ref [] in
      let chunk_summaries =
        List.map
          (fun chunk ->
            fold1 Soak.merge
              (List.map
                 (fun (epoch, cfg) ->
                   let (r : Runtime.report) = run cfg in
                   sent := !sent + r.net_stats.Network.sent;
                   bounced := !bounced + r.net_stats.bounced;
                   events := !events + r.events_run;
                   term := !term + r.termination_invocations;
                   probes := !probes + r.probes;
                   Option.iter (fun p -> prof := p :: !prof) r.profile;
                   Soak.of_report ~epoch r)
                 chunk))
          epochs
      in
      let key = join_keys (List.map soak_key chunk_summaries) in
      let s = fold1 Soak.merge chunk_summaries in
      let settled = s.Soak.settled in
      let c name = float_of_int (Metrics.counter s.metrics name) in
      let outcome =
        {
          ops = s.offered;
          ops_failed =
            s.torn + s.blocked
            + Metrics.counter s.metrics "txn.rejected"
            + Metrics.counter s.metrics "txn.starved";
          settled;
          committed = s.committed;
          msgs = !sent;
          commit = Metrics.histogram s.metrics "latency.commit";
          gates = [ ("conserved", Soak.conserved s) ];
          counts =
            [
              metric "engine.events_per_txn" "count"
                (per settled (float_of_int !events));
              metric "net.bounced_per_txn" "count"
                (per settled (float_of_int !bounced));
              metric "termination.invocations_per_ktxn" "count"
                (per settled (1000. *. float_of_int !term));
              metric "termination.probes_per_txn" "count"
                (per settled (float_of_int !probes));
              metric "recovery.redone" "count" (c "recovery.redone");
              metric "recovery.in_doubt" "count" (c "recovery.in_doubt");
              metric "recovery.aborted" "count" (c "recovery.aborted");
              metric "scheduler.queue_wait_p99_T" "T"
                (p99_t (Metrics.histogram s.metrics "wait.queue"));
            ];
          key;
        }
      in
      (outcome, List.rev !prof)
    in
    {
      reference = (fun () -> fst (replay (fun cfg -> Runtime.run cfg)));
      chunks =
        List.map
          (fun config () ->
            let s = Soak.run ~jobs:1 config in
            (s.Soak.settled, soak_key s))
          configs;
      traced =
        (fun () ->
          let outcome, profs =
            replay (fun cfg ->
                Runtime.run ~obs:(Obs.create ())
                  { cfg with Runtime.profile = true })
          in
          {
            outcome;
            prof = Some (sum_profiles profs);
            hooks = [];
            peak_waiters = 0;
          });
      probes = (fun () -> []);
      depth =
        (fun () ->
          let peak =
            List.fold_left
              (fun peak (_, cfg) ->
                let obs = Obs.create () in
                ignore (Runtime.run ~obs cfg);
                max peak (peak_in_flight obs))
              0 (List.concat epochs)
          in
          peak + ((List.hd configs).Soak.base.Runtime.window * n));
      lock_specs = [];
    }
  in
  { name = "soak-faults"; kind = Cluster; n; prepare }

(* -------------------------------------------------------------------- *)
(* checker-grid                                                          *)

let grid_configs ~seed =
  let n = 4 in
  let grid = Scenario.large_grid ~n ~t_unit in
  (* The grid's own ten seeds, shifted by the workload seed. *)
  let seeds = List.mapi (fun i _ -> Int64.add seed (Int64.of_int i)) grid.seeds in
  Scenario.configs
    ~base:{ (Runner.default_config ~n ~t_unit ()) with Runner.trace_enabled = false }
    { grid with Scenario.seeds }

(* The grid is timed as [grid_slices] contiguous slices, one Sweep.run
   each. *)
let grid_slices = 16

let slices k xs =
  let a = Array.of_list xs in
  let len = Array.length a in
  List.init k (fun i ->
      Array.to_list (Array.sub a (i * len / k) (((i + 1) * len / k) - (i * len / k))))

let failure_free_reason r =
  String.equal r "fact1-case1" || String.equal r "fact2-case1"

let grid =
  let n = 4 in
  let name = Site.name protocol in
  let prepare seed =
    let configs = slices grid_slices (grid_configs ~seed) in
    let scratch = Runner.make_scratch () in
    let replay ?tap ?obs () =
      let sent = ref 0 and bounced = ref 0 in
      let events = ref 0 and term = ref 0 and latencies = ref [] in
      let run_one (cfg : Runner.config) =
        let obs = Option.map (fun make -> make ()) obs in
        let tap = Option.map (fun make -> make ()) tap in
        let r = Runner.run ?tap ?obs ~scratch protocol cfg in
        let v = Verdict.of_result r in
        sent := !sent + r.net_stats.Network.sent;
        bounced := !bounced + r.net_stats.bounced;
        events := !events + r.events_run;
        if
          Array.exists
            (fun (s : Runner.site_result) ->
              List.exists (fun x -> not (failure_free_reason x)) s.reasons)
            r.sites
        then incr term;
        (match (Verdict.outcome v, v.max_decision_time) with
        | `Committed, Some at ->
            latencies := Vtime.to_int (Vtime.sub at cfg.start_at) :: !latencies
        | _ -> ());
        Sweep.of_verdict ~protocol:name (cfg, v)
      in
      let parts =
        List.map (fun slice -> fold1 (Sweep.merge ~keep:3) (List.map run_one slice)) configs
      in
      let s = fold1 (Sweep.merge ~keep:3) parts in
      let runs = s.Sweep.runs in
      {
        ops = runs;
        ops_failed = s.violations + s.blocked_runs + s.undecided;
        settled = runs;
        committed = s.committed;
        msgs = !sent;
        commit = Stats.of_list !latencies;
        gates =
          [ ("no_violation", s.violations = 0); ("no_blocked_run", s.blocked_runs = 0) ];
        counts =
          [
            metric "engine.events_per_txn" "count" (per runs (float_of_int !events));
            metric "net.bounced_per_txn" "count" (per runs (float_of_int !bounced));
            metric "termination.invocations_per_ktxn" "count"
              (per runs (1000. *. float_of_int !term));
          ];
        key = join_keys (List.map (fun p -> Export.to_string (Export.of_summary p)) parts);
      }
    in
    {
      reference = (fun () -> replay ());
      chunks =
        List.map
          (fun slice () ->
            let s = Sweep.run ~jobs:1 protocol slice in
            (s.Sweep.runs, Export.to_string (Export.of_summary s)))
          configs;
      traced =
        (fun () ->
          let probes = ref 0 in
          let tap () (ev : Types.msg Network.event) =
            match ev with
            | Network.Sent { env = { payload = Types.Probe _; _ }; _ } -> incr probes
            | Network.Sent _ | Network.Delivered _ | Network.Bounced _ | Network.Lost _ -> ()
          in
          let outcome = replay ~tap ~obs:Obs.create () in
          {
            outcome;
            prof = None;
            hooks =
              [
                metric "termination.probes_per_txn" "count"
                  (per outcome.settled (float_of_int !probes));
              ];
            peak_waiters = 0;
          });
      probes = (fun () -> []);
      (* A fresh tap per run tracks the messages in flight; timers:
         about one per site. *)
      depth =
        (fun () ->
          let in_flight = ref 0 and peak = ref 0 in
          let tap () =
            in_flight := 0;
            fun (ev : Types.msg Network.event) ->
              match ev with
              | Network.Sent _ ->
                  incr in_flight;
                  if !in_flight > !peak then peak := !in_flight
              | Network.Delivered _ | Network.Bounced _ | Network.Lost _ ->
                  decr in_flight
          in
          ignore (replay ~tap ());
          !peak + n);
      lock_specs = [];
    }
  in
  { name = "checker-grid"; kind = Grid; n; prepare }

(* -------------------------------------------------------------------- *)
(* db-contended                                                          *)

(* A unit is [db_chunks] independent runs of [db_txns] transactions,
   with seeds derived from the workload seed. *)
let db_chunks = 32
let db_txns = 625
let db_spacing_ticks = 1500

let db_inputs ~seed =
  let n = 4 in
  let w =
    Workload.uniform_mix ~n ~txns:db_txns ~keys_per_txn:3 ~key_space:(8 * n)
      ~spacing:(Vtime.of_int db_spacing_ticks) ~seed
  in
  let config =
    {
      (Tm.default_config ~protocol ~n ()) with
      Tm.t_unit;
      seed;
      initial = w.Workload.initial;
      horizon = Vtime.of_int ((db_txns * db_spacing_ticks) + (400 * 1000));
    }
  in
  (config, w.Workload.txns)

let terminal = function
  | Tm.Txn_committed | Tm.Txn_aborted | Tm.Txn_deadlock_victim -> true
  | Tm.Txn_blocked | Tm.Txn_torn | Tm.Txn_waiting_locks -> false

let failed_status = function
  | Tm.Txn_torn | Tm.Txn_blocked | Tm.Txn_waiting_locks -> true
  | Tm.Txn_committed | Tm.Txn_aborted | Tm.Txn_deadlock_victim -> false

let tm_key (r : Tm.report) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (x : Tm.txn_report) ->
      Printf.bprintf b "%d:%s:%d:%d;" x.spec.tid
        (Format.asprintf "%a" Tm.pp_status x.status)
        (Option.value ~default:(-1) x.lock_wait)
        (Option.value ~default:(-1) x.latency))
    r.txns;
  Printf.bprintf b "dl=%d sent=%d" r.deadlocks_resolved r.net_stats.Network.sent;
  Buffer.contents b

let tm_settled (r : Tm.report) =
  List.length (List.filter (fun (x : Tm.txn_report) -> not (failed_status x.status)) r.txns)

let tm_outcome (reports : Tm.report list) =
  let txns = List.concat_map (fun (r : Tm.report) -> r.txns) reports in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  let count s = List.length (List.filter (fun (x : Tm.txn_report) -> x.status = s) txns) in
  let ops = List.length txns in
  let failed = List.length (List.filter (fun (x : Tm.txn_report) -> failed_status x.status) txns) in
  let settled = ops - failed in
  let latencies =
    List.filter_map
      (fun (x : Tm.txn_report) ->
        if x.status = Tm.Txn_committed then Option.map Vtime.to_int x.latency
        else None)
      txns
  in
  let lock_waits =
    List.filter_map (fun (x : Tm.txn_report) -> Option.map Vtime.to_int x.lock_wait) txns
  in
  let wal =
    sum (fun r ->
        Array.fold_left
          (fun acc s -> acc + List.length (Durable_site.wal_records s))
          0 r.Tm.stores)
  in
  let net f = sum (fun r -> f r.Tm.net_stats) in
  {
    ops;
    ops_failed = failed;
    settled;
    committed = count Tm.Txn_committed;
    msgs = net (fun ns -> ns.Network.sent);
    commit = Stats.of_list latencies;
    gates =
      [
        ("no_torn", count Tm.Txn_torn = 0);
        ("all_terminal", List.for_all (fun (x : Tm.txn_report) -> terminal x.status) txns);
      ];
    counts =
      [
        (* Tm exposes no engine counter: message arrivals, bounces and
           losses are the events it can be seen to run (a lower bound;
           timers are missing). *)
        metric "engine.events_per_txn" "count"
          (per settled
             (float_of_int (net (fun ns -> ns.Network.delivered + ns.bounced + ns.lost))));
        metric "net.bounced_per_txn" "count"
          (per settled (float_of_int (net (fun ns -> ns.Network.bounced))));
        metric "storage.wal_records_per_txn" "count" (per ops (float_of_int wal));
        metric "locks.wait_p99_T" "T" (p99_t (Stats.of_list lock_waits));
        metric "locks.deadlocks_resolved" "count"
          (float_of_int (sum (fun r -> r.Tm.deadlocks_resolved)));
      ];
    key = join_keys (List.map tm_key reports);
  }

(* Peak number of transactions between start and last decision at any
   instant of one run. *)
let peak_concurrent (r : Tm.report) =
  let edges =
    List.concat_map
      (fun (x : Tm.txn_report) ->
        match x.latency with
        | Some l ->
            let s = Vtime.to_int x.spec.start_at in
            [ (s, 1); (s + Vtime.to_int l, -1) ]
        | None -> [])
      r.txns
  in
  let sorted = List.sort compare edges in
  snd
    (List.fold_left
       (fun (cur, peak) (_, d) -> (cur + d, max peak (cur + d)))
       (0, 0) sorted)

let db =
  let n = 4 in
  let prepare seed =
    let inputs = List.init db_chunks (fun i -> db_inputs ~seed:(sub_seed seed i)) in
    {
      reference =
        (fun () -> tm_outcome (List.map (fun (config, specs) -> Tm.run config specs) inputs));
      chunks =
        List.map
          (fun (config, specs) () ->
            let r = Tm.run config specs in
            (tm_settled r, tm_key r))
          inputs;
      traced =
        (fun () ->
          let waiters = ref 0 in
          let on_gauge name v =
            if String.equal name "gauge.lock_waiters" && v > !waiters then
              waiters := v
          in
          let runs =
            List.map
              (fun (config, specs) ->
                let prof = Prof.create () in
                let r = Tm.run ~obs:(Obs.create ()) ~prof ~on_gauge config specs in
                (r, Prof.report prof))
              inputs
          in
          let reports = List.map fst runs in
          {
            outcome = tm_outcome reports;
            prof = Some (sum_profiles (List.map snd runs));
            hooks = [ metric "locks.peak_waiters" "count" (float_of_int !waiters) ];
            peak_waiters = !waiters;
          });
      probes = (fun () -> []);
      (* Timers: about one per site for each transaction under way. *)
      depth =
        (fun () ->
          List.fold_left
            (fun peak (config, specs) ->
              let obs = Obs.create () in
              let r = Tm.run ~obs config specs in
              max peak (peak_in_flight obs + (peak_concurrent r * n)))
            0 inputs);
      lock_specs = snd (List.hd inputs);
    }
  in
  { name = "db-contended"; kind = Db; n; prepare }

let all = [ steady; soak; grid; db ]

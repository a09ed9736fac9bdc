(* Isolated per-layer probes: each one drives a single layer through its
   public functions at the size the workload reaches, so its ns/op can
   be set against the end-to-end run.  None of them touches the
   workloads' engines. *)

open Util

let t_unit = Workloads.t_unit
let label = Label.Static "ladder"
let quiet_trace () = Trace.create ~enabled:false ()

(* Engine: one schedule plus one pop with [depth] events pending. *)
let engine_ns_per_event ~depth =
  let ops = 20_000 in
  ns_per_op ~ops
    ~setup:(fun () ->
      let e = Engine.create ~trace:(quiet_trace ()) () in
      for i = 1 to max 1 depth do
        ignore
          (Engine.schedule e ~delay:(Vtime.of_int (1 + (i * 7919 mod 1000))) ~label ignore)
      done;
      e)
    (fun e ->
      for i = 1 to ops do
        ignore
          (Engine.schedule e ~rank:Engine.Delivery
             ~delay:(Vtime.of_int (1 + (i * 7919 mod 1000)))
             ~label ignore);
        ignore (Engine.step e)
      done)

let int_renderer =
  Network.register_payload_renderer (fun b v -> Buffer.add_string b (string_of_int v))

(* Network: one send and its delivery, in bursts of [n - 1] messages
   from site 1. *)
let net_ns_per_send ~n =
  let ops = 20_000 in
  ns_per_op ~ops
    ~setup:(fun () ->
      let engine = Engine.create ~trace:(quiet_trace ()) () in
      let net : int Network.t =
        Network.create ~engine ~n ~t_max:t_unit ~payload_codec:(int_renderer, Fun.id) ()
      in
      Network.set_handler net (fun _ _ -> ());
      (engine, net))
    (fun (engine, net) ->
      let i = ref 0 in
      while !i < ops do
        for dst = 2 to n do
          Network.send net ~src:Site_id.master ~dst:(Site_id.of_int dst) !i;
          incr i
        done;
        Engine.run engine
      done)

(* One whole transaction of the benchmark's protocol through
   [Runner.run], without and with a transient partition. *)
let protocol_txn_ns ~n =
  let scratch = Runner.make_scratch () in
  let base =
    { (Runner.default_config ~n ~t_unit ()) with Runner.trace_enabled = false }
  in
  let partitioned =
    let starts_at = Vtime.of_int 1500 in
    {
      base with
      Runner.partition =
        Partition.make
          ~heals_at:(Vtime.add starts_at (Workloads.t 3))
          ~group2:(Site_id.set_of_ints [ n ])
          ~starts_at ~n ();
    }
  in
  let runs = 200 in
  let probe cfg =
    ns_per_op ~ops:runs
      ~setup:(fun () -> ())
      (fun () ->
        for _ = 1 to runs do
          ignore (Runner.run ~scratch Workloads.protocol cfg)
        done)
  in
  (probe base, probe partitioned)

let commit_path d ~tid =
  Durable_site.begin_transaction d ~tid;
  Durable_site.stage d ~tid [ { Wal.key = "k"; value = string_of_int tid } ];
  Durable_site.prepare d ~tid;
  Durable_site.commit d ~tid ()

let records_per_path =
  let d = Durable_site.create () in
  commit_path d ~tid:1;
  List.length (Durable_site.wal_records d)

(* A site whose WAL holds about [records] records, and the next free
   tid. *)
let filled_site ~records =
  let d = Durable_site.create () in
  let paths = max 1 (records / records_per_path) in
  for tid = 1 to paths do
    commit_path d ~tid
  done;
  (d, ref (paths + 1))

(* Storage: begin, stage, prepare, commit on a site already holding
   [records] WAL records. *)
let storage_commit_path_ns ~records =
  let d, next = filled_site ~records in
  let ops = 500 in
  ns_per_op ~ops
    ~setup:(fun () -> ())
    (fun () ->
      for _ = 1 to ops do
        commit_path d ~tid:!next;
        incr next
      done)

(* Storage: crash and WAL replay, per record replayed. *)
let storage_recover_ns_per_record ~records =
  let d, _ = filled_site ~records in
  let replayed = List.length (Durable_site.wal_records d) in
  ns_per_op ~ops:replayed
    ~setup:(fun () -> ())
    (fun () ->
      Durable_site.crash d;
      ignore (Durable_site.recover d))

(* The instrument names of a short steady run: the metric cardinality
   the update and snapshot probes reproduce. *)
let steady_instruments () =
  let r =
    Runtime.run
      { (Workloads.steady_config ~horizon_t:50 ~seed:1L ()) with Runtime.snapshot_every = None }
  in
  let m = r.Runtime.metrics in
  let hists =
    match Metrics.to_json m with
    | Export.Obj fields -> (
        match List.assoc_opt "histograms" fields with
        | Some (Export.Obj hs) -> List.map fst hs
        | _ -> [])
    | _ -> []
  in
  ( Array.of_list (List.map fst (Metrics.counters m)),
    List.map fst (Metrics.gauges m),
    Metrics.series_names m,
    hists )

let populated (counters, gauges, series, hists) =
  let m = Metrics.create ~t_unit () in
  let cursor = Metrics.create_cursor m in
  Array.iter (Metrics.incr m) counters;
  List.iter (fun g -> Metrics.set_gauge m g 1) gauges;
  List.iter (fun s -> Metrics.mark m ~at:Vtime.zero s) series;
  List.iter (fun h -> Metrics.observe m h 3000) hists;
  (m, cursor)

(* Metrics: one counter update by name, and one windowed snapshot. *)
let metrics_ns instruments =
  let counters, _, _, _ = instruments in
  let ncounters = Array.length counters in
  let ops = 20_000 in
  let update =
    ns_per_op ~ops
      ~setup:(fun () -> fst (populated instruments))
      (fun m ->
        for i = 0 to ops - 1 do
          Metrics.incr m counters.(i mod ncounters)
        done)
  in
  let snaps = 200 in
  let snapshot =
    ns_per_op ~ops:snaps
      ~setup:(fun () -> populated instruments)
      (fun (m, cursor) ->
        for i = 1 to snaps do
          Metrics.incr m counters.(i mod ncounters);
          ignore (Metrics.snapshot m cursor ~at:(Workloads.t (10 * i)) ~final:false)
        done)
  in
  (update, snapshot)

(* Auditor: one decision recorded (transactions begun and settled over
   three sites), after [history] transactions have already settled. *)
let auditor_record_ns ~history =
  let n = 3 in
  let txns = 1000 in
  let settle a tid =
    Auditor.begin_txn a ~tid ~contributions:[ (Site_id.of_int 1, 10) ];
    for s = 1 to n do
      Auditor.record a ~tid ~site:(Site_id.of_int s) Types.Commit
    done
  in
  ns_per_op ~ops:(txns * n)
    ~setup:(fun () ->
      let a = Auditor.create ~n () in
      for tid = 1 to history do
        settle a tid
      done;
      a)
    (fun a ->
      for tid = history + 1 to history + txns do
        settle a tid
      done)

(* Scheduler: one admission and its completion. *)
let scheduler_admit_ns ~n ~window =
  let ops = 20_000 in
  ns_per_op ~ops
    ~setup:(fun () -> Scheduler.create ~window ~n ())
    (fun s ->
      for i = 1 to ops do
        match Scheduler.submit s ~timeline:Partition.none ~now:(Vtime.of_int i) i with
        | `Admit _ -> Scheduler.complete s
        | `Enqueued | `Rejected -> ()
      done)

(* Lock manager: the db workload's arrivals piled up in arrival order
   on one lock manager per site, as [Tm] requests them (writes
   exclusive, then reads shared), with no transaction finishing, until
   as many requests wait as at the traced run's peak of
   [gauge.lock_waiters] (summed over sites).  A request only ever waits
   for an earlier transaction, so the graphs have no cycle and the
   search visits all of them.  One check is [waits_for_edges] plus
   [find_cycle] at every site; [Tm] itself searches the union of the
   sites' graphs with a DFS of its own. *)
let deadlock_check_ns ~n ~specs ~waiters =
  let lms = Array.init n (fun _ -> Lock_manager.create ()) in
  let at site = lms.(Site_id.to_int site - 1) in
  let waiting () = Array.fold_left (fun acc lm -> acc + Lock_manager.wait_depth lm) 0 lms in
  let keys = Hashtbl.create 64 in
  let acquire tid site key mode =
    Hashtbl.replace keys (Site_id.to_int site, key) ();
    ignore (Lock_manager.acquire (at site) ~tid ~key ~mode)
  in
  let rec pile = function
    | (spec : Tm.txn_spec) :: rest when waiting () < waiters ->
        List.iter
          (fun (site, updates) ->
            List.iter
              (fun (u : Wal.update) -> acquire spec.tid site u.key Lock_manager.Exclusive)
              updates)
          spec.writes;
        List.iter
          (fun (site, keys) ->
            List.iter (fun key -> acquire spec.tid site key Lock_manager.Shared) keys)
          spec.reads;
        pile rest
    | _ -> ()
  in
  pile specs;
  let longest =
    Hashtbl.fold
      (fun (site, key) () acc ->
        max acc (List.length (Lock_manager.queued lms.(site - 1) ~key)))
      keys 0
  in
  Printf.printf "  deadlock probe graph: %d waiters on %d keys, longest queue %d\n"
    (waiting ()) (Hashtbl.length keys) longest;
  let checks = 20 in
  ns_per_op ~ops:checks
    ~setup:(fun () -> ())
    (fun () ->
      for _ = 1 to checks do
        Array.iter
          (fun lm ->
            ignore (Lock_manager.waits_for_edges lm);
            ignore (Lock_manager.find_cycle lm))
          lms
      done)

type rungs = {
  engine_ns : float;
  net_ns : float;
  txn_ns_failure_free : float;
  txn_ns_partitioned : float;
  commit_path_ns : float;
  recover_epoch_ns : float;
  recover_steady_ns : float;
  update_ns : float;
  snapshot_ns : float;
  record_empty_ns : float;
  record_full_ns : float;
  admit_ns : float;
  deadlock_ns : float;
}

let steady_records = Workloads.steady_txns * records_per_path
let epoch_records = Workloads.epoch_txns * records_per_path

let measure ~n ~depth ~waiters ~lock_specs =
  let txn_ff, txn_part = protocol_txn_ns ~n in
  let update_ns, snapshot_ns = metrics_ns (steady_instruments ()) in
  {
    engine_ns = engine_ns_per_event ~depth;
    net_ns = net_ns_per_send ~n;
    txn_ns_failure_free = txn_ff;
    txn_ns_partitioned = txn_part;
    commit_path_ns = storage_commit_path_ns ~records:steady_records;
    recover_epoch_ns = storage_recover_ns_per_record ~records:epoch_records;
    recover_steady_ns = storage_recover_ns_per_record ~records:steady_records;
    update_ns;
    snapshot_ns;
    record_empty_ns = auditor_record_ns ~history:0;
    record_full_ns = auditor_record_ns ~history:Workloads.steady_txns;
    admit_ns = scheduler_admit_ns ~n ~window:Workloads.steady_window;
    deadlock_ns = deadlock_check_ns ~n ~specs:lock_specs ~waiters;
  }

type txn_spec = {
  tid : int;
  start_at : Vtime.t;
  writes : (Site_id.t * Wal.update list) list;
  reads : (Site_id.t * string list) list;
  vote_no : Site_id.t list;
}

let txn ?(reads = []) ?(vote_no = []) ~tid ~start_at writes =
  if tid < 1 then invalid_arg "Tm.txn: tids start at 1";
  { tid; start_at; writes; reads; vote_no }

type txn_status =
  | Txn_committed
  | Txn_aborted
  | Txn_blocked
  | Txn_torn
  | Txn_waiting_locks
  | Txn_deadlock_victim

let pp_status fmt s =
  Format.pp_print_string fmt
    (match s with
    | Txn_committed -> "committed"
    | Txn_aborted -> "aborted"
    | Txn_blocked -> "blocked"
    | Txn_torn -> "TORN"
    | Txn_waiting_locks -> "waiting-locks"
    | Txn_deadlock_victim -> "deadlock-victim")

type txn_report = {
  spec : txn_spec;
  status : txn_status;
  locks_granted_at : Vtime.t option;
  all_decided_at : Vtime.t option;
  lock_wait : Vtime.t option;
  latency : Vtime.t option;
}

type config = {
  protocol : Site.packed;
  n : int;
  t_unit : Vtime.t;
  mode : Network.mode;
  partition : Partition.t;
  delay : Delay.t;
  seed : int64;
  horizon : Vtime.t;
  trace_enabled : bool;
  initial : (Site_id.t * (string * string) list) list;
  crashes : (Site_id.t * Vtime.t) list;
}

let default_config ~protocol ?(n = 3) () =
  let t_unit = Vtime.of_int 1000 in
  {
    protocol;
    n;
    t_unit;
    mode = Network.Optimistic;
    partition = Partition.none;
    delay = Delay.uniform ~t_max:t_unit;
    seed = 1L;
    horizon = Vtime.of_int (200 * Vtime.to_int t_unit);
    trace_enabled = false;
    initial = [];
    crashes = [];
  }

type report = {
  txns : txn_report list;
  stores : Durable_site.t array;
  trace : Trace.t;
  net_stats : Network.stats;
  deadlocks_resolved : int;
  crashed : Site_id.t list;
}

(* Wire payload: protocol messages multiplexed by transaction. *)
type wire = { wtid : int; body : Types.msg }

let pp_wire fmt w = Format.fprintf fmt "t%d:%a" w.wtid Types.pp_msg w.body

(* Binary wire codec: the transaction id rides in bits 40+ above the
   packed message (see Types.msg_code's layout). *)
let wire_code w = Types.msg_code w.body lor (w.wtid lsl 40)

let buf_wire_code b code =
  Buffer.add_char b 't';
  Buffer.add_string b (string_of_int (code lsr 40));
  Buffer.add_char b ':';
  Types.buf_msg_code b (code land ((1 lsl 40) - 1))

let wire_renderer = Network.register_payload_renderer buf_wire_code

let wire_codec = (wire_renderer, wire_code)

(* Manager-side trace templates ("tm" topic).  Registered here, not in
   [Run] — the functor is applied per run and templates are global. *)

let buf_tid b tid =
  Buffer.add_char b 't';
  Buffer.add_string b (string_of_int tid)

let tmpl_locks_granted =
  Trace.register_template (fun b lookup tid name _ _ _ ->
      buf_tid b tid;
      Buffer.add_string b ": all locks granted; starting ";
      Buffer.add_string b (lookup name))

let tmpl_never_reached =
  Trace.register_template (fun b _ tid site _ _ _ ->
      buf_tid b tid;
      Buffer.add_string b ": ";
      Site_id.buf b (Site_id.of_int site);
      Buffer.add_string b " never reached by the transaction; local abort")

let tmpl_deadlock_victim =
  Trace.register_template (fun b _ tid _ _ _ _ ->
      buf_tid b tid;
      Buffer.add_string b ": deadlock victim; released")

let tmpl_lock_wait =
  Trace.register_template (fun b _ tid n _ _ _ ->
      buf_tid b tid;
      Buffer.add_string b ": waiting for ";
      Buffer.add_string b (string_of_int n);
      Buffer.add_string b " locks")

module Run (P : Site.S) = struct
  type txn_rt = {
    spec : txn_spec;
    mutable pending_locks : int;
    mutable granted_at : Vtime.t option;
    mutable instances : P.t array option;  (* created at activation *)
    decisions : Types.decision option array;
    decided_ats : Vtime.t option array;
    mutable victim : bool;
  }

  type state = {
    config : config;
    engine : Engine.t;
    trace_store : Trace.t;
    tracing : bool;
    topic_tm : Trace.topic;
    obs : Obs.t;
    obs_on : bool;  (* cached Obs.enabled *)
    net : wire Network.t;
    stores : Durable_site.t array;
    locks : Lock_manager.t array;
    txns : (int, txn_rt) Hashtbl.t;
    mutable deadlocks : int;
    prof : Prof.t option;  (* wall-time bracket for lock work, or None *)
    on_gauge : (string -> int -> unit) option;
        (* telemetry gauge sink ("gauge.lock_waiters") — Tm sits below
           the metrics pipeline, so gauges flow out via callback *)
  }

  let store state site = state.stores.(Site_id.to_int site - 1)

  let locks_at state site = state.locks.(Site_id.to_int site - 1)

  let prof_enter state b =
    match state.prof with Some p -> Prof.enter p b | None -> ()

  let prof_leave state =
    match state.prof with Some p -> Prof.leave p | None -> ()

  (* Sample the cross-site lock-wait queue depth into the gauge sink;
     called whenever the wait graph may have changed shape. *)
  let sample_lock_gauge state =
    match state.on_gauge with
    | None -> ()
    | Some sink ->
        sink "gauge.lock_waiters"
          (Array.fold_left
             (fun n lm -> n + Lock_manager.wait_depth lm)
             0 state.locks)

  (* Call sites guard with [state.tracing]. *)
  let log1 state tmpl a0 =
    Trace.log1 state.trace_store ~at:(Engine.now state.engine)
      ~topic:state.topic_tm tmpl a0

  let log2 state tmpl a0 a1 =
    Trace.log2 state.trace_store ~at:(Engine.now state.engine)
      ~topic:state.topic_tm tmpl a0 a1

  (* Transaction-lifecycle spans live on track 0 (the manager's own
     timeline): txn ⊃ lock-wait, protocol.  Sealed when the last site
     decides, or by [close_open_spans] for transactions still blocked
     at the horizon. *)
  let obs_track_done state rt =
    let at = Engine.now state.engine in
    while Obs.open_depth state.obs ~site:0 ~tid:rt.spec.tid > 0 do
      Obs.span_end state.obs ~at ~site:0 ~tid:rt.spec.tid
    done

  let all_decided rt = not (Array.exists (( = ) None) rt.decisions)

  let lock_requests (spec : txn_spec) =
    List.concat_map
      (fun (site, updates) ->
        List.map
          (fun (u : Wal.update) -> (site, u.key, Lock_manager.Exclusive))
          updates)
      spec.writes
    @ List.concat_map
        (fun (site, keys) ->
          List.map (fun key -> (site, key, Lock_manager.Shared)) keys)
        spec.reads

  (* Activation: begin + stage at every site, then start the protocol. *)
  let rec activate state rt =
    rt.granted_at <- Some (Engine.now state.engine);
    if state.obs_on then begin
      let at = Engine.now state.engine in
      if Obs.open_depth state.obs ~site:0 ~tid:rt.spec.tid > 1 then
        Obs.span_end state.obs ~at ~site:0 ~tid:rt.spec.tid;  (* lock-wait *)
      Obs.span_begin state.obs ~at ~site:0 ~tid:rt.spec.tid ~cat:"lifecycle"
        "protocol"
    end;
    if state.tracing then
      log2 state tmpl_locks_granted rt.spec.tid
        (Trace.intern state.trace_store P.name);
    let writes_of site =
      match List.assoc_opt site rt.spec.writes with
      | Some updates -> updates
      | None -> []
    in
    let release_site site =
      prof_enter state Prof.Locks;
      let grants = Lock_manager.release_all (locks_at state site) ~tid:rt.spec.tid in
      prof_leave state;
      grants
    in
    let instances =
      Array.init state.config.n (fun i ->
          let site = Site_id.of_int (i + 1) in
          let durable = store state site in
          Durable_site.begin_transaction durable ~tid:rt.spec.tid;
          Durable_site.stage durable ~tid:rt.spec.tid (writes_of site);
          let ctx =
            Ctx.make ~engine:state.engine ~n:state.config.n
              ~t_unit:state.config.t_unit ~self:site ~trans_id:rt.spec.tid
              ~send:(fun dst body ->
                Network.send state.net ~src:site ~dst
                  { wtid = rt.spec.tid; body })
              ~on_decide:(fun decision ->
                rt.decisions.(i) <- Some decision;
                rt.decided_ats.(i) <- Some (Engine.now state.engine);
                (match decision with
                | Types.Commit -> Durable_site.commit durable ~tid:rt.spec.tid ()
                | Types.Abort -> Durable_site.abort durable ~tid:rt.spec.tid);
                if state.obs_on && all_decided rt then obs_track_done state rt;
                let grants = release_site site in
                on_grants state grants)
              ~on_reason:(fun _ -> ())
              ~obs:state.obs ()
          in
          let role =
            if Site_id.is_master site then Site.Master_role
            else
              Site.Slave_role
                { vote_yes = not (List.mem site rt.spec.vote_no) }
          in
          P.create ctx role)
    in
    rt.instances <- Some instances;
    (* A site cut off before the xact reaches it stays in its initial
       state forever; its FSA's q-timeout aborts the local transaction
       (releasing its locks).  12T is far beyond any legitimate quiet
       period — the xact otherwise arrives within T of activation. *)
    Array.iteri
      (fun i instance ->
        let site = Site_id.of_int (i + 1) in
        ignore
          (Engine.schedule state.engine ~rank:Engine.Timer
             ~delay:(Vtime.of_int (12 * Vtime.to_int state.config.t_unit))
             ~label:(Label.Static "q-watchdog")
             (fun () ->
               let initial =
                 match P.state_name instance with
                 | "q" | "q1" -> true
                 | _ -> false
               in
               if rt.decisions.(i) = None && initial && not rt.victim then begin
                 if state.tracing then
                   log2 state tmpl_never_reached rt.spec.tid
                     (Site_id.to_int site);
                 rt.decisions.(i) <- Some Types.Abort;
                 rt.decided_ats.(i) <- Some (Engine.now state.engine);
                 Durable_site.abort (store state site) ~tid:rt.spec.tid;
                 if state.obs_on && all_decided rt then obs_track_done state rt;
                 on_grants state (release_site site)
               end)))
      instances;
    P.begin_transaction instances.(0)

  and on_grants state grants =
    List.iter
      (fun (g : Lock_manager.grant) ->
        match Hashtbl.find_opt state.txns g.tid with
        | None -> ()
        | Some rt ->
            if not rt.victim then begin
              rt.pending_locks <- rt.pending_locks - 1;
              if rt.pending_locks = 0 then activate state rt
            end)
      grants;
    sample_lock_gauge state

  let kill_victim state rt =
    rt.victim <- true;
    state.deadlocks <- state.deadlocks + 1;
    if state.obs_on then begin
      Obs.instant state.obs ~at:(Engine.now state.engine) ~site:0
        ~tid:rt.spec.tid ~cat:"lifecycle" "deadlock-victim";
      obs_track_done state rt
    end;
    if state.tracing then log1 state tmpl_deadlock_victim rt.spec.tid;
    prof_enter state Prof.Locks;
    let grants =
      List.concat_map
        (fun site -> Lock_manager.release_all (locks_at state site) ~tid:rt.spec.tid)
        (Site_id.all ~n:state.config.n)
    in
    prof_leave state;
    on_grants state grants

  (* A cycle in the union graph is a (possibly cross-site) deadlock;
     the youngest transaction (largest tid) dies. *)
  let check_deadlock state =
    prof_enter state Prof.Locks;
    let cycle = Lock_manager.find_cycle_union state.locks in
    prof_leave state;
    match cycle with
    | None -> ()
    | Some tids -> (
        let victim = List.fold_left Stdlib.max min_int tids in
        match Hashtbl.find_opt state.txns victim with
        | Some rt when not rt.victim -> kill_victim state rt
        | Some _ | None -> ())

  let start_txn state rt =
    if state.obs_on then
      Obs.span_begin state.obs ~at:(Engine.now state.engine) ~site:0
        ~tid:rt.spec.tid ~cat:"txn" "txn";
    let requests = lock_requests rt.spec in
    if requests = [] then activate state rt
    else begin
      let waiting = ref 0 in
      prof_enter state Prof.Locks;
      List.iter
        (fun (site, key, mode) ->
          match Lock_manager.acquire (locks_at state site) ~tid:rt.spec.tid ~key ~mode with
          | `Granted -> ()
          | `Waiting -> incr waiting)
        requests;
      prof_leave state;
      rt.pending_locks <- !waiting;
      if !waiting = 0 then activate state rt
      else begin
        if state.obs_on then
          Obs.span_begin state.obs ~at:(Engine.now state.engine) ~site:0
            ~tid:rt.spec.tid ~cat:"lifecycle" "lock-wait";
        if state.tracing then log2 state tmpl_lock_wait rt.spec.tid !waiting;
        sample_lock_gauge state;
        (* Waits can only deadlock when a new waiter arrives. *)
        ignore
          (Engine.schedule state.engine ~delay:(Vtime.of_int 1)
             ~label:(Label.Static "deadlock-check") (fun () -> check_deadlock state))
      end
    end

  let run ~obs ~prof ~on_gauge config specs =
    let tids = List.map (fun s -> s.tid) specs in
    let distinct = List.sort_uniq Int.compare tids in
    if List.length distinct <> List.length tids then
      invalid_arg "Tm.run: duplicate tids";
    let trace_store = Trace.create ~enabled:config.trace_enabled () in
    let engine = Engine.create ~trace:trace_store () in
    let net =
      Network.create ~engine ~n:config.n ~t_max:config.t_unit ~mode:config.mode
        ~partition:config.partition ~delay:config.delay ~seed:config.seed
        ~pp_payload:pp_wire ~payload_codec:wire_codec ~obs
        ~obs_tid:(fun w -> w.wtid)
        ?prof ()
    in
    let state =
      {
        config;
        engine;
        trace_store;
        tracing = Trace.enabled trace_store;
        topic_tm = Trace.topic trace_store "tm";
        obs;
        obs_on = Obs.enabled obs;
        net;
        stores =
          Array.init config.n (fun i ->
              let store = Durable_site.create () in
              (match List.assoc_opt (Site_id.of_int (i + 1)) config.initial with
              | Some kvs ->
                  List.iter
                    (fun (key, value) ->
                      Kv.set (Durable_site.database store) ~key ~value)
                    kvs
              | None -> ());
              store);
        locks = Array.init config.n (fun _ -> Lock_manager.create ());
        txns = Hashtbl.create 64;
        deadlocks = 0;
        prof;
        on_gauge;
      }
    in
    Network.set_handler net (fun site delivery ->
        let wtid =
          match delivery with
          | Network.Msg e | Network.Undeliverable e -> e.payload.wtid
        in
        match Hashtbl.find_opt state.txns wtid with
        | None -> ()
        | Some rt -> (
            match rt.instances with
            | None -> ()
            | Some instances ->
                let unwrap = function
                  | Network.Msg e -> Network.Msg { e with payload = e.payload.body }
                  | Network.Undeliverable e ->
                      Network.Undeliverable { e with payload = e.payload.body }
                in
                let instance = instances.(Site_id.to_int site - 1) in
                P.on_delivery instance (unwrap delivery);
                (* Reaching the prepared state must survive a restart
                   (the paper's p / p1 states); persist it on the
                   transition. *)
                (match P.state_name instance with
                | "p" | "p1" ->
                    let durable = store state site in
                    if Durable_site.status durable ~tid:wtid = `Active then
                      Durable_site.prepare durable ~tid:wtid
                | _ -> ())));
    List.iter
      (fun (site, at) ->
        ignore
          (Engine.schedule_at engine ~at ~label:(Label.Static "crash") (fun () ->
               Network.crash net site;
               (* The site loses volatile state: staged updates and the
                  lock table.  Only in-doubt (prepared) transactions
                  keep their locks — the WAL pins their data until the
                  group outcome is known; everything else is released,
                  waking compatible waiters. *)
               let durable = store state site in
               Durable_site.crash durable;
               prof_enter state Prof.Locks;
               let grants =
                 Lock_manager.purge (locks_at state site) ~keep:(fun tid ->
                     Durable_site.status durable ~tid = `Prepared)
               in
               prof_leave state;
               on_grants state grants)))
      config.crashes;
    (* Starts are streamed in [start_at] order.  The sort is stable, so
       equal start times keep list order, the order up-front scheduling
       gave them. *)
    let by_start =
      Array.of_list
        (List.map
           (fun spec ->
             let rt =
               {
                 spec;
                 pending_locks = 0;
                 granted_at = None;
                 instances = None;
                 decisions = Array.make config.n None;
                 decided_ats = Array.make config.n None;
                 victim = false;
               }
             in
             Hashtbl.add state.txns spec.tid rt;
             rt)
           specs)
    in
    Array.stable_sort
      (fun a b -> Vtime.compare a.spec.start_at b.spec.start_at)
      by_start;
    Engine.schedule_stream engine ~label:(Label.Static "txn-start")
      ~count:(Array.length by_start)
      ~at:(fun i -> by_start.(i).spec.start_at)
      (fun i -> start_txn state by_start.(i));
    Engine.run ~until:config.horizon engine;
    Obs.close_open_spans obs ~at:(Engine.now engine);
    let reports =
      List.map
        (fun spec ->
          let rt = Hashtbl.find state.txns spec.tid in
          let decisions =
            List.filteri
              (fun i _ -> Network.alive net (Site_id.of_int (i + 1)))
              (Array.to_list rt.decisions)
          in
          let status =
            if rt.victim then Txn_deadlock_victim
            else if rt.instances = None then Txn_waiting_locks
            else if List.for_all (( = ) (Some Types.Commit)) decisions then
              Txn_committed
            else if List.for_all (( = ) (Some Types.Abort)) decisions then
              Txn_aborted
            else if List.exists (( = ) None) decisions then Txn_blocked
            else Txn_torn
          in
          let all_decided_at =
            if Array.exists (( = ) None) rt.decided_ats then None
            else
              Array.fold_left
                (fun acc at ->
                  match (acc, at) with
                  | None, x -> x
                  | Some a, Some b -> Some (Vtime.max a b)
                  | Some a, None -> Some a)
                None rt.decided_ats
          in
          let lock_wait =
            Option.map (fun g -> Vtime.sub g spec.start_at) rt.granted_at
          in
          let latency =
            Option.map (fun d -> Vtime.sub d spec.start_at) all_decided_at
          in
          {
            spec;
            status;
            locks_granted_at = rt.granted_at;
            all_decided_at;
            lock_wait;
            latency;
          })
        specs
    in
    {
      txns = reports;
      stores = state.stores;
      trace = trace_store;
      net_stats = Network.stats net;
      deadlocks_resolved = state.deadlocks;
      crashed =
        List.filter
          (fun site -> not (Network.alive net site))
          (Site_id.all ~n:config.n);
    }
end

let run ?(obs = Obs.disabled) ?prof ?on_gauge config specs =
  let (module P : Site.S) = config.protocol in
  let module R = Run (P) in
  R.run ~obs ~prof ~on_gauge config specs

let balance_total report ~prefix =
  Array.fold_left
    (fun acc store ->
      List.fold_left
        (fun acc (key, value) ->
          if String.length key >= String.length prefix
             && String.equal (String.sub key 0 (String.length prefix)) prefix
          then acc + int_of_string value
          else acc)
        acc
        (Kv.snapshot (Durable_site.database store)))
    0 report.stores

let count_status report status =
  List.length (List.filter (fun r -> r.status = status) report.txns)

let pp_report fmt report =
  List.iter
    (fun r ->
      Format.fprintf fmt "t%-3d %-16s lock-wait=%-6s latency=%s@." r.spec.tid
        (Format.asprintf "%a" pp_status r.status)
        (match r.lock_wait with
        | Some w -> Format.asprintf "%a" Vtime.pp w
        | None -> "-")
        (match r.latency with
        | Some l -> Format.asprintf "%a" Vtime.pp l
        | None -> "-"))
    report.txns;
  Format.fprintf fmt "deadlocks resolved: %d@." report.deadlocks_resolved

module Four_phase_termination = struct
  let name = "4pc-termination"

  let blocking_by_design = false

  type master_state =
    | M_initial  (** q1 *)
    | M_wait of { yes : Site_id.Set.t }  (** w1, timer 2T *)
    | M_buffer of { pre_acks : Site_id.Set.t }  (** x1, timer 2T *)
    | M_prepared of { acks : Site_id.Set.t }  (** p1, timer 2T *)
    | M_collect of { ud : Site_id.Set.t; pb : Site_id.Set.t }
        (** p1 after the first UD(prepare); 5T window *)
    | M_committed
    | M_aborted

  type slave_state =
    | S_initial  (** q *)
    | S_wait  (** w, timer 3T *)
    | S_buffer  (** x, timer 3T *)
    | S_wait2  (** w or x after a timeout; 6T window *)
    | S_prepared  (** p, timer 3T *)
    | S_probing
    | S_committed
    | S_aborted

  type machine =
    | Master of master_state
    | Slave of { vote_yes : bool; state : slave_state }

  type t = { ctx : Ctx.t; timer : Ctx.Timer_slot.slot; mutable machine : machine }

  let create ctx role =
    let timer = Ctx.Timer_slot.create ctx in
    match role with
    | Site.Master_role -> { ctx; timer; machine = Master M_initial }
    | Site.Slave_role { vote_yes } ->
        { ctx; timer; machine = Slave { vote_yes; state = S_initial } }

  let state_name t =
    match t.machine with
    | Master M_initial -> "q1"
    | Master (M_wait _) -> "w1"
    | Master (M_buffer _) -> "x1"
    | Master (M_prepared _) -> "p1"
    | Master (M_collect _) -> "p1/collect"
    | Master M_committed -> "c1"
    | Master M_aborted -> "a1"
    | Slave { state = S_initial; _ } -> "q"
    | Slave { state = S_wait; _ } -> "w"
    | Slave { state = S_buffer; _ } -> "x"
    | Slave { state = S_wait2; _ } -> "w/waiting"
    | Slave { state = S_prepared; _ } -> "p"
    | Slave { state = S_probing; _ } -> "p/probing"
    | Slave { state = S_committed; _ } -> "c"
    | Slave { state = S_aborted; _ } -> "a"

  (* ---- master ---------------------------------------------------------- *)

  let master_decide t decision ~reason =
    Ctx.Timer_slot.cancel t.timer;
    t.machine <-
      Master
        (match decision with Types.Commit -> M_committed | Types.Abort -> M_aborted);
    Ctx.broadcast_slaves t.ctx
      (match decision with
      | Types.Commit -> Types.Commit_cmd
      | Types.Abort -> Types.Abort_cmd);
    Ctx.decide t.ctx decision ~reason

  let arm_master_timer t ~label f =
    Ctx.Timer_slot.set t.ctx t.timer ~mult_t:Timing.master_timeout_mult ~label f

  let begin_transaction t =
    match t.machine with
    | Master M_initial ->
        Ctx.broadcast_slaves t.ctx Types.Xact;
        t.machine <- Master (M_wait { yes = Site_id.Set.empty });
        arm_master_timer t ~label:(Label.Static "w1-timeout") (fun () ->
            match t.machine with
            | Master (M_wait _) ->
                (* pre-m: no prepare exists, aborting is safe *)
                master_decide t Types.Abort ~reason:"t10-w1-timeout"
            | Master _ | Slave _ -> ())
    | Master _ | Slave _ -> ()

  let close_collect_window t ~ud ~pb =
    let slaves = Site_id.Set.of_list (Ctx.slaves t.ctx) in
    let reached = Site_id.Set.diff slaves ud in
    if Site_id.Set.equal reached pb then
      master_decide t Types.Abort ~reason:"t10-collect-abort"
    else master_decide t Types.Commit ~reason:"t10-collect-commit"

  let enter_collect t ~ud ~pb =
    t.machine <- Master (M_collect { ud; pb });
    Ctx.Timer_slot.set t.ctx t.timer ~mult_t:Timing.collect_window_mult
      ~label:(Label.Static "collect-window") (fun () ->
        match t.machine with
        | Master (M_collect { ud; pb }) -> close_collect_window t ~ud ~pb
        | Master _ | Slave _ -> ())

  let on_master_msg t state (envelope : Types.msg Network.envelope) =
    let n_slaves = Ctx.n t.ctx - 1 in
    match (state, envelope.payload) with
    | M_wait { yes }, Types.Yes ->
        let yes = Site_id.Set.add envelope.src yes in
        if Site_id.Set.cardinal yes = n_slaves then begin
          Ctx.broadcast_slaves t.ctx Types.Pre_prepare;
          t.machine <- Master (M_buffer { pre_acks = Site_id.Set.empty });
          arm_master_timer t ~label:(Label.Static "x1-timeout") (fun () ->
              match t.machine with
              | Master (M_buffer _) ->
                  (* still pre-m: abort everyone *)
                  master_decide t Types.Abort ~reason:"t10-x1-timeout"
              | Master _ | Slave _ -> ())
        end
        else t.machine <- Master (M_wait { yes })
    | M_wait _, Types.No -> master_decide t Types.Abort ~reason:"t10-no-vote"
    | M_buffer { pre_acks }, Types.Pre_ack ->
        let pre_acks = Site_id.Set.add envelope.src pre_acks in
        if Site_id.Set.cardinal pre_acks = n_slaves then begin
          Ctx.broadcast_slaves t.ctx Types.Prepare;
          t.machine <- Master (M_prepared { acks = Site_id.Set.empty });
          arm_master_timer t ~label:(Label.Static "p1-timeout") (fun () ->
              match t.machine with
              | Master (M_prepared _) ->
                  (* m was delivered everywhere: idea 3 commits *)
                  master_decide t Types.Commit ~reason:"t10-p1-timeout"
              | Master _ | Slave _ -> ())
        end
        else t.machine <- Master (M_buffer { pre_acks })
    | M_prepared { acks }, Types.Ack ->
        let acks = Site_id.Set.add envelope.src acks in
        if Site_id.Set.cardinal acks = n_slaves then
          master_decide t Types.Commit ~reason:"t10-all-acks"
        else t.machine <- Master (M_prepared { acks })
    | M_collect { ud; pb }, Types.Probe { slave; _ } ->
        t.machine <- Master (M_collect { ud; pb = Site_id.Set.add slave pb })
    | M_prepared _, Types.Probe _ ->
        Ctx.log_text t.ctx "probe ignored in p1 (no partition detected)"
    | (M_initial | M_committed | M_aborted), _
    | M_wait _, _
    | M_buffer _, _
    | M_prepared _, _
    | M_collect _, _ ->
        Ctx.log_ignoring t.ctx envelope.payload (state_name t)

  let on_master_ud t state (envelope : Types.msg Network.envelope) =
    match (state, envelope.payload) with
    | M_wait _, Types.Xact ->
        master_decide t Types.Abort ~reason:"t10-ud-xact"
    | M_buffer _, Types.Pre_prepare ->
        (* pre-m traffic bounced: abort is still safe *)
        master_decide t Types.Abort ~reason:"t10-ud-pre-prepare"
    | M_prepared _, Types.Prepare ->
        enter_collect t
          ~ud:(Site_id.Set.singleton envelope.dst)
          ~pb:Site_id.Set.empty
    | M_collect { ud; pb }, Types.Prepare ->
        t.machine <- Master (M_collect { ud = Site_id.Set.add envelope.dst ud; pb })
    | ( ( M_initial | M_wait _ | M_buffer _ | M_prepared _ | M_collect _
        | M_committed | M_aborted ),
        _ ) ->
        Ctx.log_ud_ignored t.ctx envelope.payload (state_name t)

  (* ---- slaves ----------------------------------------------------------- *)

  let slave_decide t ~vote_yes decision ~reason ~tell =
    Ctx.Timer_slot.cancel t.timer;
    t.machine <-
      Slave
        {
          vote_yes;
          state =
            (match decision with
            | Types.Commit -> S_committed
            | Types.Abort -> S_aborted);
        };
    if tell then
      Ctx.broadcast_all t.ctx
        (match decision with
        | Types.Commit -> Types.Commit_cmd
        | Types.Abort -> Types.Abort_cmd);
    Ctx.decide t.ctx decision ~reason

  let set_slave t ~vote_yes state = t.machine <- Slave { vote_yes; state }

  let arm_slave_timer t ~mult_t ~label ~expected f =
    Ctx.Timer_slot.set t.ctx t.timer ~mult_t ~label (fun () ->
        match t.machine with
        | Slave { state; vote_yes } when state = expected -> f ~vote_yes
        | Slave _ | Master _ -> ())

  let enter_wait2 t ~vote_yes =
    set_slave t ~vote_yes S_wait2;
    arm_slave_timer t ~mult_t:Timing.wait_window_mult ~label:(Label.Static "w2-window")
      ~expected:S_wait2 (fun ~vote_yes ->
        slave_decide t ~vote_yes Types.Abort ~reason:"t10-w2-expired"
          ~tell:false)

  let enter_probing t ~vote_yes =
    Ctx.send_master t.ctx
      (Types.Probe { trans_id = Ctx.trans_id t.ctx; slave = Ctx.self t.ctx });
    set_slave t ~vote_yes S_probing

  let on_slave_msg t ~vote_yes state (envelope : Types.msg Network.envelope) =
    match (state, envelope.payload) with
    | S_initial, Types.Xact ->
        if vote_yes then begin
          Ctx.send_master t.ctx Types.Yes;
          set_slave t ~vote_yes S_wait;
          arm_slave_timer t ~mult_t:Timing.slave_timeout_mult ~label:(Label.Static "w-timeout")
            ~expected:S_wait (fun ~vote_yes -> enter_wait2 t ~vote_yes)
        end
        else begin
          Ctx.send_master t.ctx Types.No;
          slave_decide t ~vote_yes Types.Abort ~reason:"t10-voted-no"
            ~tell:false
        end
    | S_wait, Types.Pre_prepare ->
        Ctx.send_master t.ctx Types.Pre_ack;
        set_slave t ~vote_yes S_buffer;
        arm_slave_timer t ~mult_t:Timing.slave_timeout_mult ~label:(Label.Static "x-timeout")
          ~expected:S_buffer (fun ~vote_yes -> enter_wait2 t ~vote_yes)
    | S_buffer, Types.Prepare ->
        Ctx.send_master t.ctx Types.Ack;
        set_slave t ~vote_yes S_prepared;
        arm_slave_timer t ~mult_t:Timing.slave_timeout_mult ~label:(Label.Static "p-timeout")
          ~expected:S_prepared (fun ~vote_yes -> enter_probing t ~vote_yes)
    | ( (S_initial | S_wait | S_buffer | S_wait2 | S_prepared | S_probing),
        Types.Commit_cmd ) ->
        (* the generalised Fig. 8 acceptance: every noncommittable state
           takes a commit command directly *)
        slave_decide t ~vote_yes Types.Commit ~reason:"t10-commit-cmd"
          ~tell:false
    | ( (S_initial | S_wait | S_buffer | S_wait2 | S_prepared | S_probing),
        Types.Abort_cmd ) ->
        slave_decide t ~vote_yes Types.Abort ~reason:"t10-abort-cmd"
          ~tell:false
    | ( ( S_initial | S_wait | S_buffer | S_wait2 | S_prepared | S_probing
        | S_committed | S_aborted ),
        _ ) ->
        Ctx.log_ignoring t.ctx envelope.payload (state_name t)

  let on_slave_ud t ~vote_yes state (envelope : Types.msg Network.envelope) =
    match (state, envelope.payload) with
    | S_wait, Types.Yes ->
        slave_decide t ~vote_yes Types.Abort ~reason:"t10-ud-yes" ~tell:true
    | S_buffer, Types.Pre_ack ->
        (* pre-m: the master cannot assemble all pre-acks, so m will
           never be sent — abort the reachable side *)
        slave_decide t ~vote_yes Types.Abort ~reason:"t10-ud-pre-ack"
          ~tell:true
    | (S_prepared | S_probing), Types.Ack ->
        slave_decide t ~vote_yes Types.Commit ~reason:"t10-ud-ack" ~tell:true
    | S_probing, Types.Probe _ ->
        slave_decide t ~vote_yes Types.Commit ~reason:"t10-ud-probe" ~tell:true
    | ( ( S_initial | S_wait | S_buffer | S_wait2 | S_prepared | S_probing
        | S_committed | S_aborted ),
        _ ) ->
        Ctx.log_ud_ignored t.ctx envelope.payload (state_name t)

  let on_delivery t delivery =
    match (t.machine, delivery) with
    | Master state, Network.Msg envelope -> on_master_msg t state envelope
    | Master state, Network.Undeliverable envelope ->
        on_master_ud t state envelope
    | Slave { vote_yes; state }, Network.Msg envelope ->
        on_slave_msg t ~vote_yes state envelope
    | Slave { vote_yes; state }, Network.Undeliverable envelope ->
        on_slave_ud t ~vote_yes state envelope
end

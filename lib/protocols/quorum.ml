(* Skeen's quorum-based commit assigns every site a vote weight V_i and
   requires V_C + V_A > sum(V_i).  [Make] takes the weighting; the
   default export gives every site one vote and majority quorums. *)

module type WEIGHTS = sig
  val weight : Site_id.t -> int
  (** must be positive *)
end

module Uniform_weights = struct
  let weight _ = 1
end

let tmpl_quorum_termination =
  Ctx.str_template ~prefix:"quorum termination (" ~suffix:")"

let tmpl_blocked_repolling =
  Ctx.int_template ~prefix:"group weight "
    ~suffix:" cannot reach a quorum; blocked, re-polling"

let tmpl_late_answer =
  Ctx.site_template ~prefix:"late state-answer from " ~suffix:" ignored"

module Make (W : WEIGHTS) = struct
  let name = "quorum"

  let blocking_by_design = true

  let weight_of_sites sites =
    List.fold_left (fun acc s -> acc + W.weight s) 0 sites

  let total_weight ~n = weight_of_sites (Site_id.all ~n)

  let commit_quorum ~n = (total_weight ~n / 2) + 1

  let abort_quorum ~n = total_weight ~n - commit_quorum ~n + 1

  type base_state =
    | B_initial
    | B_wait of { yes : Site_id.Set.t }  (** master: w1; slave: w *)
    | B_prepared of { acks : Site_id.Set.t }  (** master: p1; slave: p *)
    | B_committed
    | B_aborted

  type termination = {
    mutable answers : Types.phase Site_id.Map.t;
    mutable round : int;
  }

  type t = {
    ctx : Ctx.t;
    role : Site.role;
    timer : Ctx.Timer_slot.slot;
    mutable base : base_state;
    mutable terminating : termination option;
  }

  let create ctx role =
    {
      ctx;
      role;
      timer = Ctx.Timer_slot.create ctx;
      base = B_initial;
      terminating = None;
    }

  let is_master t = match t.role with Site.Master_role -> true | Site.Slave_role _ -> false

  let state_name t =
    let base =
      match (t.base, is_master t) with
      | B_initial, true -> "q1"
      | B_wait _, true -> "w1"
      | B_prepared _, true -> "p1"
      | B_committed, true -> "c1"
      | B_aborted, true -> "a1"
      | B_initial, false -> "q"
      | B_wait _, false -> "w"
      | B_prepared _, false -> "p"
      | B_committed, false -> "c"
      | B_aborted, false -> "a"
    in
    match t.terminating with
    | None -> base
    | Some term -> Printf.sprintf "%s/quorum-round%d" base term.round

  let phase_of t =
    match t.base with
    | B_initial -> Types.Ph_initial
    | B_wait _ -> Types.Ph_wait
    | B_prepared _ -> Types.Ph_prepared
    | B_committed -> Types.Ph_committed
    | B_aborted -> Types.Ph_aborted

  let finish t decision ~reason =
    Ctx.Timer_slot.cancel t.timer;
    t.terminating <- None;
    t.base <-
      (match decision with Types.Commit -> B_committed | Types.Abort -> B_aborted);
    Ctx.decide t.ctx decision ~reason

  let decide_and_tell_group t decision ~reason =
    finish t decision ~reason;
    Ctx.broadcast_all t.ctx
      (match decision with
      | Types.Commit -> Types.Commit_cmd
      | Types.Abort -> Types.Abort_cmd)

  (* --- quorum termination ------------------------------------------------ *)

  let rec start_termination t ~why =
    match t.base with
    | B_committed | B_aborted -> ()
    | B_initial | B_wait _ | B_prepared _ ->
        Ctx.log_str t.ctx tmpl_quorum_termination why;
        let term =
          match t.terminating with
          | Some term ->
              term.round <- term.round + 1;
              term.answers <- Site_id.Map.empty;
              term
          | None -> { answers = Site_id.Map.empty; round = 1 }
        in
        t.terminating <- Some term;
        Ctx.broadcast_all t.ctx
          (Types.State_inquiry { coordinator = Ctx.self t.ctx });
        (* One round trip gathers every reachable answer. *)
        Ctx.Timer_slot.set t.ctx t.timer ~mult_t:2 ~label:(Label.Static "quorum-window")
          (fun () -> close_window t)

  and close_window t =
    match t.terminating with
    | None -> ()
    | Some term ->
        let n = Ctx.n t.ctx in
        let answers = Site_id.Map.add (Ctx.self t.ctx) (phase_of t) term.answers in
        let group_weight =
        Site_id.Map.fold (fun site _ acc -> acc + W.weight site) answers 0
      in
        let has phase =
          Site_id.Map.exists (fun _ p -> p = phase) answers
        in
        if has Types.Ph_committed then
          decide_and_tell_group t Types.Commit ~reason:"group member committed"
        else if has Types.Ph_aborted then
          decide_and_tell_group t Types.Abort ~reason:"group member aborted"
        else if has Types.Ph_prepared && group_weight >= commit_quorum ~n then
          decide_and_tell_group t Types.Commit
            ~reason:
              (Printf.sprintf
                 "prepared member and group weight %d >= commit quorum %d"
                 group_weight (commit_quorum ~n))
        else if
          (not (has Types.Ph_prepared)) && group_weight >= abort_quorum ~n
        then
          decide_and_tell_group t Types.Abort
            ~reason:
              (Printf.sprintf
                 "no prepared member and group weight %d >= abort quorum %d"
                 group_weight (abort_quorum ~n))
        else begin
          Ctx.log1 t.ctx tmpl_blocked_repolling group_weight;
          Ctx.Timer_slot.set t.ctx t.timer ~mult_t:5 ~label:(Label.Static "quorum-retry")
            (fun () -> start_termination t ~why:"re-poll")
        end

  (* --- the three-phase base flow ----------------------------------------- *)

  let arm_base_timer t ~mult_t ~label =
    Ctx.Timer_slot.set t.ctx t.timer ~mult_t ~label (fun () ->
        (* forced only when the timeout actually fires *)
        start_termination t ~why:(Label.force label ^ " timeout"))

  let begin_transaction t =
    match (t.role, t.base) with
    | Site.Master_role, B_initial ->
        Ctx.broadcast_slaves t.ctx Types.Xact;
        t.base <- B_wait { yes = Site_id.Set.empty };
        arm_base_timer t ~mult_t:2 ~label:(Label.Static "w1")
    | Site.Master_role, (B_wait _ | B_prepared _ | B_committed | B_aborted)
    | Site.Slave_role _, _ ->
        ()

  let on_base_msg t (envelope : Types.msg Network.envelope) =
    let n = Ctx.n t.ctx in
    match (t.role, t.base, envelope.payload) with
    (* master *)
    | Site.Master_role, B_wait { yes }, Types.Yes ->
        let yes = Site_id.Set.add envelope.src yes in
        if Site_id.Set.cardinal yes = n - 1 then begin
          Ctx.broadcast_slaves t.ctx Types.Prepare;
          t.base <- B_prepared { acks = Site_id.Set.empty };
          arm_base_timer t ~mult_t:2 ~label:(Label.Static "p1")
        end
        else t.base <- B_wait { yes }
    | Site.Master_role, B_wait _, Types.No ->
        decide_and_tell_group t Types.Abort ~reason:"received a no vote"
    | Site.Master_role, B_prepared { acks }, Types.Ack ->
        let acks = Site_id.Set.add envelope.src acks in
        if Site_id.Set.cardinal acks = n - 1 then
          decide_and_tell_group t Types.Commit ~reason:"all acks received"
        else t.base <- B_prepared { acks }
    (* slave *)
    | Site.Slave_role { vote_yes }, B_initial, Types.Xact ->
        if vote_yes then begin
          Ctx.send_master t.ctx Types.Yes;
          t.base <- B_wait { yes = Site_id.Set.empty };
          arm_base_timer t ~mult_t:3 ~label:(Label.Static "w")
        end
        else begin
          Ctx.send_master t.ctx Types.No;
          finish t Types.Abort ~reason:"voted no"
        end
    | Site.Slave_role _, B_wait _, Types.Prepare ->
        Ctx.send_master t.ctx Types.Ack;
        t.base <- B_prepared { acks = Site_id.Set.empty };
        arm_base_timer t ~mult_t:3 ~label:(Label.Static "p")
    (* commands, for either role *)
    | _, (B_initial | B_wait _ | B_prepared _), Types.Commit_cmd ->
        finish t Types.Commit ~reason:"commit command"
    | _, (B_initial | B_wait _ | B_prepared _), Types.Abort_cmd ->
        finish t Types.Abort ~reason:"abort command"
    | _, _, Types.State_inquiry { coordinator } ->
        Ctx.send t.ctx coordinator (Types.State_answer { phase = phase_of t })
    | _, _, Types.State_answer { phase } -> (
        match t.terminating with
        | Some term ->
            term.answers <- Site_id.Map.add envelope.src phase term.answers
        | None ->
            Ctx.log_site t.ctx tmpl_late_answer envelope.src)
    | ( _,
        _,
        ( Types.Xact | Types.Yes | Types.No | Types.Pre_prepare
        | Types.Pre_ack | Types.Prepare | Types.Ack | Types.Probe _
        | Types.Commit_cmd | Types.Abort_cmd | Types.Px_vote _
        | Types.Px_accept _ | Types.Px_poll _ | Types.Px_promise _ ) ) ->
        Ctx.log_ignoring t.ctx envelope.payload (state_name t)

  let on_delivery t = function
    | Network.Msg envelope -> on_base_msg t envelope
    | Network.Undeliverable envelope -> (
        match envelope.payload with
        | Types.State_inquiry _ | Types.State_answer _ ->
            (* Bounced poll traffic carries no new information: the window
               timer already bounds the wait. *)
            ()
        | Types.Xact | Types.Yes | Types.No | Types.Pre_prepare
        | Types.Pre_ack | Types.Prepare | Types.Ack | Types.Commit_cmd
        | Types.Abort_cmd | Types.Probe _ | Types.Px_vote _
        | Types.Px_accept _ | Types.Px_poll _ | Types.Px_promise _ ->
            start_termination t
              ~why:
                (Format.asprintf "UD(%a) returned" Types.pp_msg envelope.payload))

end

include Make (Uniform_weights)

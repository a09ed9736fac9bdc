let name = "3pc-skeen"

let blocking_by_design = false

let tmpl_coop_termination =
  Ctx.str_template ~prefix:"cooperative termination (" ~suffix:")"

type base_state =
  | B_initial
  | B_wait of { yes : Site_id.Set.t }  (** master: w1 collecting; slave: w *)
  | B_prepared of { acks : Site_id.Set.t }  (** master: p1; slave: p *)
  | B_committed
  | B_aborted

type term_stage =
  | Collecting of { answers : Types.phase Site_id.Map.t }
  | Repreparing of { pending : Site_id.Set.t }

type t = {
  ctx : Ctx.t;
  role : Site.role;
  timer : Ctx.Timer_slot.slot;
  mutable base : base_state;
  mutable terminating : term_stage option;
}

let create ctx role =
  {
    ctx;
    role;
    timer = Ctx.Timer_slot.create ctx;
    base = B_initial;
    terminating = None;
  }

let is_master t =
  match t.role with Site.Master_role -> true | Site.Slave_role _ -> false

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
  | Some (Collecting _) -> base ^ "/term-collect"
  | Some (Repreparing _) -> base ^ "/term-reprepare"

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

let decide_and_tell t decision ~reason =
  finish t decision ~reason;
  Ctx.broadcast_all t.ctx
    (match decision with
    | Types.Commit -> Types.Commit_cmd
    | Types.Abort -> Types.Abort_cmd)

(* ---- Skeen's cooperative termination ---------------------------------- *)

let rec start_termination t ~why =
  match t.base with
  | B_committed | B_aborted -> ()
  | B_initial | B_wait _ | B_prepared _ ->
      Ctx.log_str t.ctx tmpl_coop_termination why;
      t.terminating <- Some (Collecting { answers = Site_id.Map.empty });
      Ctx.broadcast_all t.ctx
        (Types.State_inquiry { coordinator = Ctx.self t.ctx });
      Ctx.Timer_slot.set t.ctx t.timer ~mult_t:2 ~label:(Label.Static "term-collect")
        (fun () -> close_collection t)

and close_collection t =
  match t.terminating with
  | None | Some (Repreparing _) -> ()
  | Some (Collecting { answers }) ->
      let answers = Site_id.Map.add (Ctx.self t.ctx) (phase_of t) answers in
      let has phase = Site_id.Map.exists (fun _ p -> p = phase) answers in
      if has Types.Ph_committed then
        decide_and_tell t Types.Commit ~reason:"term: a respondent committed"
      else if has Types.Ph_aborted then
        decide_and_tell t Types.Abort ~reason:"term: a respondent aborted"
      else if not (has Types.Ph_prepared) then
        (* Nobody reachable is prepared, so nobody anywhere can have
           committed (commitment requires every site prepared) — sound
           for site failures, unsound across a partition boundary. *)
        decide_and_tell t Types.Abort ~reason:"term: nobody prepared"
      else begin
        (* Someone prepared: bring the waiters forward, then commit. *)
        let waiters =
          Site_id.Map.fold
            (fun site phase acc ->
              if
                phase = Types.Ph_wait
                && not (Site_id.equal site (Ctx.self t.ctx))
              then Site_id.Set.add site acc
              else acc)
            answers Site_id.Set.empty
        in
        if Site_id.Set.is_empty waiters then
          decide_and_tell t Types.Commit ~reason:"term: prepared, no waiters"
        else begin
          Site_id.Set.iter (fun site -> Ctx.send t.ctx site Types.Prepare) waiters;
          t.terminating <- Some (Repreparing { pending = waiters });
          Ctx.Timer_slot.set t.ctx t.timer ~mult_t:2 ~label:(Label.Static "term-reprepare")
            (fun () -> finish_reprepare t)
        end
      end

and finish_reprepare t =
  match t.terminating with
  | Some (Repreparing _) ->
      decide_and_tell t Types.Commit ~reason:"term: re-prepared and committed"
  | None | Some (Collecting _) -> ()

(* ---- the three-phase base flow ----------------------------------------- *)

let arm_base_timer t ~mult_t ~label =
  Ctx.Timer_slot.set t.ctx t.timer ~mult_t ~label (fun () ->
      if t.terminating = None then
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

let on_msg t (envelope : Types.msg Network.envelope) =
  let n = Ctx.n t.ctx in
  match (t.role, t.base, envelope.payload) with
  (* master, failure-free flow *)
  | Site.Master_role, B_wait { yes }, Types.Yes ->
      let yes = Site_id.Set.add envelope.src yes in
      if Site_id.Set.cardinal yes = n - 1 then begin
        Ctx.broadcast_slaves t.ctx Types.Prepare;
        t.base <- B_prepared { acks = Site_id.Set.empty };
        arm_base_timer t ~mult_t:2 ~label:(Label.Static "p1")
      end
      else t.base <- B_wait { yes }
  | Site.Master_role, B_wait _, Types.No ->
      decide_and_tell t Types.Abort ~reason:"received a no vote"
  | Site.Master_role, B_prepared { acks }, Types.Ack
    when t.terminating = None ->
      let acks = Site_id.Set.add envelope.src acks in
      if Site_id.Set.cardinal acks = n - 1 then
        decide_and_tell t Types.Commit ~reason:"all acks received"
      else t.base <- B_prepared { acks }
  (* slave, failure-free flow *)
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
  | _, B_wait _, Types.Prepare ->
      (* Acknowledge to whoever sent the prepare: the master in the
         failure-free flow, a terminator during cooperative
         termination. *)
      Ctx.send t.ctx envelope.src Types.Ack;
      t.base <- B_prepared { acks = Site_id.Set.empty };
      if t.terminating = None then arm_base_timer t ~mult_t:3 ~label:(Label.Static "p")
  (* decisions, from the master or any terminator *)
  | _, (B_initial | B_wait _ | B_prepared _), Types.Commit_cmd ->
      finish t Types.Commit ~reason:"commit command"
  | _, (B_initial | B_wait _ | B_prepared _), Types.Abort_cmd ->
      finish t Types.Abort ~reason:"abort command"
  (* cooperative termination traffic *)
  | _, _, Types.State_inquiry { coordinator } ->
      Ctx.send t.ctx coordinator (Types.State_answer { phase = phase_of t })
  | _, _, Types.State_answer { phase } -> (
      match t.terminating with
      | Some (Collecting { answers }) ->
          t.terminating <-
            Some
              (Collecting
                 { answers = Site_id.Map.add envelope.src phase answers })
      | Some (Repreparing _) | None -> ())
  | _, _, Types.Ack -> (
      match t.terminating with
      | Some (Repreparing { pending }) ->
          let pending = Site_id.Set.remove envelope.src pending in
          if Site_id.Set.is_empty pending then finish_reprepare t
          else t.terminating <- Some (Repreparing { pending })
      | Some (Collecting _) | None ->
          Ctx.log_ignoring t.ctx envelope.payload (state_name t))
  | _, (B_committed | B_aborted), (Types.Commit_cmd | Types.Abort_cmd)
  | ( _,
      _,
      ( Types.Xact | Types.Yes | Types.No | Types.Pre_prepare | Types.Pre_ack
      | Types.Prepare | Types.Probe _ | Types.Px_vote _ | Types.Px_accept _
      | Types.Px_poll _ | Types.Px_promise _ ) ) ->
      Ctx.log_ignoring t.ctx envelope.payload (state_name t)

let on_delivery t = function
  | Network.Msg envelope -> on_msg t envelope
  | Network.Undeliverable envelope -> (
      match envelope.payload with
      | Types.State_inquiry _ | Types.State_answer _ ->
          (* bounced poll traffic: the window timer bounds the wait *)
          ()
      | Types.Xact | Types.Yes | Types.No | Types.Pre_prepare | Types.Pre_ack
      | Types.Prepare | Types.Ack | Types.Commit_cmd | Types.Abort_cmd
      | Types.Probe _ | Types.Px_vote _ | Types.Px_accept _ | Types.Px_poll _
      | Types.Px_promise _ ->
          if t.terminating = None then
            start_termination t
              ~why:
                (Format.asprintf "UD(%a) returned" Types.pp_msg
                   envelope.payload))

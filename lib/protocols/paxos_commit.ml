module type RESILIENCE = sig
  val f : int
end

let tmpl_escalating = Ctx.int_template ~prefix:"px: escalating to ballot " ~suffix:""

let tmpl_leading_b0 =
  Ctx.int2_template ~prefix:"px: leading ballot 0 (" ~mid:" acceptors, majority "
    ~suffix:")"

let tmpl_ud_observed =
  Ctx.msg_str_template ~prefix:"UD(" ~mid:") observed in " ~suffix:""

module Make (R : RESILIENCE) = struct
  let name =
    if R.f = 0 then "paxos-f0"
    else if R.f = 1 then "paxos"
    else Printf.sprintf "paxos-f%d" R.f

  let blocking_by_design = R.f = 0

  type leader =
    | L_idle
    | L_poll of poll
    | L_collect of collect

  and poll = {
    p_ballot : int;
    mutable promises : Site_id.Set.t;
    best : (int * bool) option array;  (* per instance, from phase 1b *)
  }

  and collect = {
    c_ballot : int;
    accepts : Site_id.Set.t array;  (* per instance: distinct 2b senders *)
    values : bool option array;  (* per instance: the value being accepted *)
  }

  type t = {
    ctx : Ctx.t;
    role : Site.role;
    vote_yes : bool;
    timer : Ctx.Timer_slot.slot;
    acc : Acceptor.t option;  (* Some iff this site hosts an acceptor *)
    mutable voted : bool;  (* ballot-0 2a for our own instance cast *)
    mutable round : int;  (* last escalation round this site used *)
    mutable max_ballot : int;  (* highest ballot seen in any message *)
    mutable leader : leader;
    mutable finished : bool;
  }

  let acceptor_count n = min n ((2 * R.f) + 1)

  let majority t = (acceptor_count (Ctx.n t.ctx) / 2) + 1

  let acceptor_sites t =
    let k = acceptor_count (Ctx.n t.ctx) in
    List.filter
      (fun s -> Site_id.to_int s <= k)
      (Site_id.all ~n:(Ctx.n t.ctx))

  let create ctx role =
    let n = Ctx.n ctx in
    let self = Ctx.self ctx in
    Ctx.obs_state ctx (if Site_id.is_master self then "q1" else "q");
    {
      ctx;
      role;
      vote_yes =
        (match role with
        | Site.Master_role -> true
        | Site.Slave_role { vote_yes } -> vote_yes);
      timer = Ctx.Timer_slot.create ctx;
      acc =
        (if Site_id.to_int self <= acceptor_count n then
           Some (Acceptor.create ~n)
         else None);
      voted = false;
      round = 0;
      max_ballot = Acceptor.ballot_zero;
      leader = L_idle;
      finished = false;
    }

  let state_name t =
    let base =
      match Ctx.decided t.ctx with
      | Some Types.Commit -> "c"
      | Some Types.Abort -> "a"
      | None -> if t.voted then "p" else "q"
    in
    if Site_id.is_master (Ctx.self t.ctx) then base ^ "1" else base

  let note_ballot t b = if b > t.max_ballot then t.max_ballot <- b

  (* Per-site stagger plus a per-round backoff: two surviving would-be
     leaders under worst-case delay would otherwise escalate into each
     other's in-flight rounds forever (each new poll makes the other's
     pending votes stale).  Growing the retry window by 2T per round
     guarantees one of them eventually gets the 4T of quiet a full
     poll->promise->vote->accept cycle needs. *)
  let retry_mult t ~round = 3 + (Site_id.to_int (Ctx.self t.ctx) mod 3) + (2 * round)

  (* Sending to our co-located acceptor (or to ourselves as ballot
     leader) is a local function call, never a network message. *)
  let rec send_px t dst msg =
    if Site_id.equal dst (Ctx.self t.ctx) then handle t ~src:dst msg
    else Ctx.send t.ctx dst msg

  and handle t ~src msg =
    match msg with
    | Types.Xact -> (
        match t.role with
        | Site.Master_role -> ()
        | Site.Slave_role _ -> cast_vote t)
    | Types.Commit_cmd -> learn t Types.Commit
    | Types.Abort_cmd -> learn t Types.Abort
    | Types.Px_vote { instance; ballot; prepared } -> (
        note_ballot t ballot;
        match t.acc with
        | None -> ()
        | Some acc -> (
            match Acceptor.receive_vote acc ~instance ~ballot ~prepared with
            | `Stale -> ()
            | `Accepted ->
                Ctx.obs_instant t.ctx ~cat:"paxos" "px-accept";
                send_px t
                  (Acceptor.owner ~n:(Ctx.n t.ctx) ballot)
                  (Types.Px_accept { instance; ballot; prepared })))
    | Types.Px_poll { ballot } -> (
        note_ballot t ballot;
        match t.acc with
        | None -> ()
        | Some acc -> (
            match Acceptor.receive_poll acc ~ballot with
            | `Stale -> ()
            | `Promise accepted ->
                send_px t
                  (Acceptor.owner ~n:(Ctx.n t.ctx) ballot)
                  (Types.Px_promise { ballot; accepted })))
    | Types.Px_accept { instance; ballot; prepared } -> (
        note_ballot t ballot;
        match t.leader with
        | L_collect c when c.c_ballot = ballot ->
            let i = Site_id.to_int instance - 1 in
            if not (Site_id.Set.mem src c.accepts.(i)) then begin
              c.accepts.(i) <- Site_id.Set.add src c.accepts.(i);
              c.values.(i) <- Some prepared;
              check_chosen t c
            end
        | L_collect _ | L_poll _ | L_idle -> ())
    | Types.Px_promise { ballot; accepted } -> (
        note_ballot t ballot;
        match t.leader with
        | L_poll p when p.p_ballot = ballot ->
            if not (Site_id.Set.mem src p.promises) then begin
              p.promises <- Site_id.Set.add src p.promises;
              List.iter
                (fun (inst, ((b, _) as bv)) ->
                  let i = Site_id.to_int inst - 1 in
                  match p.best.(i) with
                  | Some (b0, _) when b0 >= b -> ()
                  | Some _ | None -> p.best.(i) <- Some bv)
                accepted;
              if Site_id.Set.cardinal p.promises >= majority t then
                start_round t p
            end
        | L_poll _ | L_collect _ | L_idle -> ())
    | Types.Yes | Types.No | Types.Pre_prepare | Types.Pre_ack | Types.Prepare
    | Types.Ack | Types.Probe _ | Types.State_inquiry _ | Types.State_answer _
      ->
        Ctx.log_ignoring t.ctx msg (state_name t)

  (* Cast the ballot-0 2a for our own instance.  A participant that
     votes Aborted may decide unilaterally: no acceptor can ever accept
     Prepared for our instance unless we proposed it, so the instance
     (and hence the transaction) can only choose Aborted. *)
  and cast_vote t =
    if (not t.voted) && not t.finished then begin
      t.voted <- true;
      let self = Ctx.self t.ctx in
      let prepared = t.vote_yes in
      if prepared then
        Ctx.obs_state t.ctx (if Site_id.is_master self then "p1" else "p");
      List.iter
        (fun a ->
          if not t.finished then
            send_px t a
              (Types.Px_vote
                 { instance = self; ballot = Acceptor.ballot_zero; prepared }))
        (acceptor_sites t);
      if prepared then arm_timer t ~mult:4
      else finish t Types.Abort ~reason:"voted no"
    end

  and arm_timer t ~mult =
    Ctx.Timer_slot.set t.ctx t.timer ~mult_t:mult
      ~label:(Label.Static "px-escalate") (fun () -> escalate t)

  (* The escalation path: become leader of a ballot we own that is
     higher than anything seen, poll the acceptors, and re-drive every
     instance from whatever a promise majority reports. *)
  and escalate t =
    if not t.finished then begin
      let n = Ctx.n t.ctx in
      let self = Ctx.self t.ctx in
      t.round <- max (t.round + 1) (Acceptor.round ~n t.max_ballot + 1);
      let ballot = Acceptor.make_ballot ~n ~site:self ~round:t.round in
      note_ballot t ballot;
      t.leader <-
        L_poll
          {
            p_ballot = ballot;
            promises = Site_id.Set.empty;
            best = Array.make n None;
          };
      if Ctx.obs_on t.ctx then
        Ctx.obs_phase t.ctx (Printf.sprintf "poll-b%d" ballot);
      Ctx.log1 t.ctx tmpl_escalating ballot;
      List.iter
        (fun a ->
          if not t.finished then send_px t a (Types.Px_poll { ballot }))
        (acceptor_sites t);
      if not t.finished then arm_timer t ~mult:(retry_mult t ~round:t.round)
    end

  (* Phase 1 done: a majority promised.  Per instance, re-propose the
     highest accepted value; a free instance gets Aborted (the Gray &
     Lamport rule), except our own, which gets our actual vote — if it
     were chosen otherwise a majority promise would have reported it. *)
  and start_round t p =
    let n = Ctx.n t.ctx in
    let self_i = Site_id.to_int (Ctx.self t.ctx) - 1 in
    let values =
      Array.init n (fun i ->
          match p.best.(i) with
          | Some (_, v) -> v
          | None -> i = self_i && t.vote_yes)
    in
    t.leader <-
      L_collect
        {
          c_ballot = p.p_ballot;
          accepts = Array.init n (fun _ -> Site_id.Set.empty);
          values = Array.map Option.some values;
        };
    if Ctx.obs_on t.ctx then
      Ctx.obs_phase t.ctx (Printf.sprintf "collect-b%d" p.p_ballot);
    let sites = acceptor_sites t in
    Array.iteri
      (fun i v ->
        let instance = Site_id.of_int (i + 1) in
        List.iter
          (fun a ->
            if not t.finished then
              send_px t a
                (Types.Px_vote { instance; ballot = p.p_ballot; prepared = v }))
          sites)
      values

  and check_chosen t c =
    if not t.finished then begin
      let n = Ctx.n t.ctx in
      let maj = majority t in
      let aborted = ref false and all_prepared = ref true in
      for i = 0 to n - 1 do
        if Site_id.Set.cardinal c.accepts.(i) >= maj then begin
          match c.values.(i) with
          | Some false -> aborted := true
          | Some true | None -> ()
        end
        else all_prepared := false
      done;
      if !aborted then announce t Types.Abort ~ballot:c.c_ballot
      else if !all_prepared then announce t Types.Commit ~ballot:c.c_ballot
    end

  and announce t decision ~ballot =
    Ctx.broadcast_all t.ctx
      (match decision with
      | Types.Commit -> Types.Commit_cmd
      | Types.Abort -> Types.Abort_cmd);
    finish t decision
      ~reason:
        (if ballot = Acceptor.ballot_zero then "px-chosen"
         else "px-chosen-recovery")

  and learn t decision =
    t.voted <- true;
    finish t decision
      ~reason:
        (match decision with
        | Types.Commit -> "px-learned-commit"
        | Types.Abort -> "px-learned-abort")

  and finish t decision ~reason =
    if not t.finished then begin
      t.finished <- true;
      t.leader <- L_idle;
      Ctx.Timer_slot.cancel t.timer;
      let base =
        match decision with Types.Commit -> "c" | Types.Abort -> "a"
      in
      Ctx.obs_state t.ctx
        (if Site_id.is_master (Ctx.self t.ctx) then base ^ "1" else base);
      Ctx.decide t.ctx decision ~reason
    end

  let begin_transaction t =
    match t.role with
    | Site.Slave_role _ -> ()
    | Site.Master_role ->
        if (not t.voted) && not t.finished then begin
          Ctx.log2 t.ctx tmpl_leading_b0
            (acceptor_count (Ctx.n t.ctx))
            (majority t);
          Ctx.broadcast_slaves t.ctx Types.Xact;
          let n = Ctx.n t.ctx in
          t.leader <-
            L_collect
              {
                c_ballot = Acceptor.ballot_zero;
                accepts = Array.init n (fun _ -> Site_id.Set.empty);
                values = Array.make n None;
              };
          cast_vote t;
          if (not t.finished) && Ctx.obs_on t.ctx then
            Ctx.obs_phase t.ctx "collect-b0"
        end

  let on_delivery t = function
    | Network.Undeliverable envelope ->
        (* A bounce carries no new information: the escalation timer
           already bounds the wait, and polls are re-sent on retry. *)
        Ctx.log_msg_str t.ctx tmpl_ud_observed envelope.payload (state_name t)
    | Network.Msg envelope -> handle t ~src:envelope.src envelope.payload
end

module F1 = Make (struct
  let f = 1
end)

module F0 = Make (struct
  let f = 0
end)

let protocol : Site.packed = (module F1)

let protocol_f0 : Site.packed = (module F0)

let name = "ext2pc"

let blocking_by_design = false

type master_state =
  | M_initial
  | M_wait of { yes : Site_id.Set.t }
  | M_sent_commits of { acks : Site_id.Set.t }  (** p1 *)
  | M_committed
  | M_aborted

type slave_state = S_initial | S_wait | S_committed | S_aborted

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
  | Master (M_sent_commits _) -> "p1"
  | Master M_committed -> "c1"
  | Master M_aborted -> "a1"
  | Slave { state = S_initial; _ } -> "q"
  | Slave { state = S_wait; _ } -> "w"
  | Slave { state = S_committed; _ } -> "c"
  | Slave { state = S_aborted; _ } -> "a"

let master_abort t ~reason =
  Ctx.Timer_slot.cancel t.timer;
  Ctx.broadcast_slaves t.ctx Types.Abort_cmd;
  t.machine <- Master M_aborted;
  Ctx.decide t.ctx Types.Abort ~reason

let master_commit t ~reason =
  Ctx.Timer_slot.cancel t.timer;
  t.machine <- Master M_committed;
  Ctx.decide t.ctx Types.Commit ~reason

let begin_transaction t =
  match t.machine with
  | Master M_initial ->
      Ctx.broadcast_slaves t.ctx Types.Xact;
      t.machine <- Master (M_wait { yes = Site_id.Set.empty });
      Ctx.Timer_slot.set t.ctx t.timer ~mult_t:2 ~label:(Label.Static "w1-timeout") (fun () ->
          match t.machine with
          | Master (M_wait _) -> master_abort t ~reason:"w1 timeout (Rule a)"
          | Master (M_initial | M_sent_commits _ | M_committed | M_aborted)
          | Slave _ ->
              ())
  | Master (M_wait _ | M_sent_commits _ | M_committed | M_aborted) | Slave _ ->
      ()

let slave_abort t ~vote_yes ~reason =
  Ctx.Timer_slot.cancel t.timer;
  t.machine <- Slave { vote_yes; state = S_aborted };
  Ctx.decide t.ctx Types.Abort ~reason

let slave_commit t ~vote_yes ~reason =
  Ctx.Timer_slot.cancel t.timer;
  Ctx.send_master t.ctx Types.Ack;
  t.machine <- Slave { vote_yes; state = S_committed };
  Ctx.decide t.ctx Types.Commit ~reason

let on_master_msg t state (envelope : Types.msg Network.envelope) =
  match (state, envelope.payload) with
  | M_wait { yes }, Types.Yes ->
      let yes = Site_id.Set.add envelope.src yes in
      if Site_id.Set.cardinal yes = Ctx.n t.ctx - 1 then begin
        Ctx.broadcast_slaves t.ctx Types.Commit_cmd;
        t.machine <- Master (M_sent_commits { acks = Site_id.Set.empty });
        Ctx.Timer_slot.set t.ctx t.timer ~mult_t:2 ~label:(Label.Static "p1-timeout")
          (fun () ->
            match t.machine with
            | Master (M_sent_commits _) ->
                master_commit t ~reason:"p1 timeout (Rule a)"
            | Master (M_initial | M_wait _ | M_committed | M_aborted)
            | Slave _ ->
                ())
      end
      else t.machine <- Master (M_wait { yes })
  | M_wait _, Types.No -> master_abort t ~reason:"received a no vote"
  | M_sent_commits { acks }, Types.Ack ->
      let acks = Site_id.Set.add envelope.src acks in
      if Site_id.Set.cardinal acks = Ctx.n t.ctx - 1 then
        master_commit t ~reason:"all acks received"
      else t.machine <- Master (M_sent_commits { acks })
  | (M_initial | M_committed | M_aborted), _
  | M_wait _, _
  | M_sent_commits _, _ ->
      Ctx.log_ignoring t.ctx envelope.payload (state_name t)

let on_master_ud t state (envelope : Types.msg Network.envelope) =
  match state with
  | M_wait _ ->
      master_abort t
        ~reason:
          (Format.asprintf "UD(%a) in w1 (Rule b)" Types.pp_msg envelope.payload)
  | M_sent_commits _ ->
      (* Rule(b): S(p1) is the slave wait state, whose timeout goes to
         abort — so an undeliverable message received in p1 aborts. *)
      master_abort t
        ~reason:
          (Format.asprintf "UD(%a) in p1 (Rule b)" Types.pp_msg envelope.payload)
  | M_initial | M_committed | M_aborted ->
      Ctx.log_ud_ignored t.ctx envelope.payload (state_name t)

let on_slave_msg t ~vote_yes state (envelope : Types.msg Network.envelope) =
  match (state, envelope.payload) with
  | S_initial, Types.Xact ->
      if vote_yes then begin
        Ctx.send_master t.ctx Types.Yes;
        t.machine <- Slave { vote_yes; state = S_wait };
        Ctx.Timer_slot.set t.ctx t.timer ~mult_t:3 ~label:(Label.Static "w-timeout") (fun () ->
            match t.machine with
            | Slave { state = S_wait; _ } ->
                slave_abort t ~vote_yes ~reason:"w timeout (Rule a)"
            | Slave { state = S_initial | S_committed | S_aborted; _ }
            | Master _ ->
                ())
      end
      else begin
        Ctx.send_master t.ctx Types.No;
        slave_abort t ~vote_yes ~reason:"voted no"
      end
  | (S_initial | S_wait), Types.Commit_cmd ->
      slave_commit t ~vote_yes ~reason:"commit command"
  | (S_initial | S_wait), Types.Abort_cmd ->
      slave_abort t ~vote_yes ~reason:"abort command"
  | (S_initial | S_wait | S_committed | S_aborted), _ ->
      Ctx.log_ignoring t.ctx envelope.payload (state_name t)

let on_slave_ud t ~vote_yes state (envelope : Types.msg Network.envelope) =
  match state with
  | S_wait ->
      slave_abort t ~vote_yes
        ~reason:
          (Format.asprintf "UD(%a) in w (Rule b)" Types.pp_msg envelope.payload)
  | S_initial | S_committed | S_aborted ->
      Ctx.log_ud_ignored t.ctx envelope.payload (state_name t)

let on_delivery t delivery =
  match (t.machine, delivery) with
  | Master state, Network.Msg envelope -> on_master_msg t state envelope
  | Master state, Network.Undeliverable envelope -> on_master_ud t state envelope
  | Slave { vote_yes; state }, Network.Msg envelope ->
      on_slave_msg t ~vote_yes state envelope
  | Slave { vote_yes; state }, Network.Undeliverable envelope ->
      on_slave_ud t ~vote_yes state envelope

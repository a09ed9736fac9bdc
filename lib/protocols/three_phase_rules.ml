(* Two resolutions of the Rule(b) readings for the p states; see the
   .mli headline.  [`Paper] reproduces the Section 3 narrative (breaks
   at n = 3); [`Strict] is the mechanical Rule(a)/(b) output of
   [Commit_fsa.Augment] (breaks at n = 4, acks split across B). *)

module Make (V : sig
  val resolution : [ `Paper | `Strict ]
end) =
struct
  let name =
    match V.resolution with
    | `Paper -> "3pc+rules"
    | `Strict -> "3pc+rules-strict"

  let blocking_by_design = false

  type master_state =
    | M_initial
    | M_wait of { yes : Site_id.Set.t }
    | M_prepared of { acks : Site_id.Set.t }
    | M_committed
    | M_aborted

  type slave_state = S_initial | S_wait | S_prepared | S_committed | S_aborted

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
    | Master (M_prepared _) -> "p1"
    | Master M_committed -> "c1"
    | Master M_aborted -> "a1"
    | Slave { state = S_initial; _ } -> "q"
    | Slave { state = S_wait; _ } -> "w"
    | Slave { state = S_prepared; _ } -> "p"
    | Slave { state = S_committed; _ } -> "c"
    | Slave { state = S_aborted; _ } -> "a"

  let master_abort t ~reason =
    Ctx.Timer_slot.cancel t.timer;
    Ctx.broadcast_slaves t.ctx Types.Abort_cmd;
    t.machine <- Master M_aborted;
    Ctx.decide t.ctx Types.Abort ~reason

  let master_commit t ~reason =
    Ctx.Timer_slot.cancel t.timer;
    Ctx.broadcast_slaves t.ctx Types.Commit_cmd;
    t.machine <- Master M_committed;
    Ctx.decide t.ctx Types.Commit ~reason

  let slave_finish t ~vote_yes ~decision ~reason =
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
    Ctx.decide t.ctx decision ~reason

  let begin_transaction t =
    match t.machine with
    | Master M_initial ->
        Ctx.broadcast_slaves t.ctx Types.Xact;
        t.machine <- Master (M_wait { yes = Site_id.Set.empty });
        Ctx.Timer_slot.set t.ctx t.timer ~mult_t:2 ~label:(Label.Static "w1-timeout") (fun () ->
            match t.machine with
            | Master (M_wait _) -> master_abort t ~reason:"w1 timeout -> abort"
            | Master (M_initial | M_prepared _ | M_committed | M_aborted)
            | Slave _ ->
                ())
    | Master (M_wait _ | M_prepared _ | M_committed | M_aborted) | Slave _ -> ()

  let on_master_msg t state (envelope : Types.msg Network.envelope) =
    match (state, envelope.payload) with
    | M_wait { yes }, Types.Yes ->
        let yes = Site_id.Set.add envelope.src yes in
        if Site_id.Set.cardinal yes = Ctx.n t.ctx - 1 then begin
          Ctx.broadcast_slaves t.ctx Types.Prepare;
          t.machine <- Master (M_prepared { acks = Site_id.Set.empty });
          Ctx.Timer_slot.set t.ctx t.timer ~mult_t:2 ~label:(Label.Static "p1-timeout")
            (fun () ->
              match t.machine with
              | Master (M_prepared _) -> (
                  match V.resolution with
                  | `Paper ->
                      master_commit t ~reason:"p1 timeout -> commit (paper)"
                  | `Strict ->
                      master_abort t ~reason:"p1 timeout -> abort (Rule a)")
              | Master (M_initial | M_wait _ | M_committed | M_aborted)
              | Slave _ ->
                  ())
        end
        else t.machine <- Master (M_wait { yes })
    | M_wait _, Types.No -> master_abort t ~reason:"received a no vote"
    | M_prepared { acks }, Types.Ack ->
        let acks = Site_id.Set.add envelope.src acks in
        if Site_id.Set.cardinal acks = Ctx.n t.ctx - 1 then
          master_commit t ~reason:"all acks received"
        else t.machine <- Master (M_prepared { acks })
    | (M_initial | M_committed | M_aborted), _
    | M_wait _, _
    | M_prepared _, _ ->
        Ctx.log_ignoring t.ctx envelope.payload (state_name t)

  let on_master_ud t state (envelope : Types.msg Network.envelope) =
    let why rule =
      Format.asprintf "UD(%a) in %s -> %s" Types.pp_msg envelope.payload
        (state_name t) rule
    in
    match state with
    | M_wait _ -> master_abort t ~reason:(why "abort (Rule b)")
    | M_prepared _ -> (
        match V.resolution with
        | `Paper -> master_commit t ~reason:(why "commit (Rule b, paper)")
        | `Strict -> master_abort t ~reason:(why "abort (Rule b, strict)"))
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
                  slave_finish t ~vote_yes ~decision:Types.Abort
                    ~reason:"w timeout -> abort (Rule a)"
              | Slave { state = S_initial | S_prepared | S_committed | S_aborted; _ }
              | Master _ ->
                  ())
        end
        else begin
          Ctx.send_master t.ctx Types.No;
          slave_finish t ~vote_yes ~decision:Types.Abort ~reason:"voted no"
        end
    | S_wait, Types.Prepare ->
        Ctx.send_master t.ctx Types.Ack;
        t.machine <- Slave { vote_yes; state = S_prepared };
        Ctx.Timer_slot.set t.ctx t.timer ~mult_t:3 ~label:(Label.Static "p-timeout") (fun () ->
            match t.machine with
            | Slave { state = S_prepared; _ } ->
                slave_finish t ~vote_yes ~decision:Types.Commit
                  ~reason:"p timeout -> commit (Rule a)"
            | Slave { state = S_initial | S_wait | S_committed | S_aborted; _ }
            | Master _ ->
                ())
    | (S_initial | S_wait | S_prepared), Types.Abort_cmd ->
        slave_finish t ~vote_yes ~decision:Types.Abort ~reason:"abort command"
    | S_prepared, Types.Commit_cmd ->
        slave_finish t ~vote_yes ~decision:Types.Commit ~reason:"commit command"
    | (S_committed | S_aborted), _
    | S_initial, _
    | S_wait, _
    | S_prepared, _ ->
        Ctx.log_ignoring t.ctx envelope.payload (state_name t)

  let on_slave_ud t ~vote_yes state (envelope : Types.msg Network.envelope) =
    let why outcome =
      Format.asprintf "UD(%a) in %s -> %s" Types.pp_msg envelope.payload
        (state_name t) outcome
    in
    match state with
    | S_wait ->
        slave_finish t ~vote_yes ~decision:Types.Abort
          ~reason:(why "abort (Rule b)")
    | S_prepared -> (
        match V.resolution with
        | `Paper ->
            slave_finish t ~vote_yes ~decision:Types.Commit
              ~reason:(why "commit (Rule b, paper)")
        | `Strict ->
            slave_finish t ~vote_yes ~decision:Types.Abort
              ~reason:(why "abort (Rule b, strict)"))
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

end

module Paper = Make (struct
  let resolution = `Paper
end)

module Strict = Make (struct
  let resolution = `Strict
end)

include Paper

module M = Commit_fsa.Machine

type outcome = [ `To_commit | `To_abort ]

let tmpl_fsa_transition = Ctx.str2_template ~prefix:"fsa: " ~mid:" -> " ~suffix:""

type assignment = {
  timeouts : ((M.role * string) * outcome) list;
  uds : ((M.role * string) * outcome) list;
}

let msg_of_tag = function
  | "xact" -> Types.Xact
  | "yes" -> Types.Yes
  | "no" -> Types.No
  | "pre-prepare" -> Types.Pre_prepare
  | "pre-ack" -> Types.Pre_ack
  | "prepare" -> Types.Prepare
  | "ack" -> Types.Ack
  | "commit" -> Types.Commit_cmd
  | "abort" -> Types.Abort_cmd
  | tag -> invalid_arg (Printf.sprintf "Fsa_actor: unknown message tag %S" tag)

let tag_of_msg = function
  | Types.Xact -> Some "xact"
  | Types.Yes -> Some "yes"
  | Types.No -> Some "no"
  | Types.Pre_prepare -> Some "pre-prepare"
  | Types.Pre_ack -> Some "pre-ack"
  | Types.Prepare -> Some "prepare"
  | Types.Ack -> Some "ack"
  | Types.Commit_cmd -> Some "commit"
  | Types.Abort_cmd -> Some "abort"
  | Types.Probe _ | Types.State_inquiry _ | Types.State_answer _
  | Types.Px_vote _ | Types.Px_accept _ | Types.Px_poll _ | Types.Px_promise _
    ->
      None

let is_waiting machine id =
  (not (M.is_final machine id)) && M.receivable_tags machine id <> []

let waiting_states (fsa : M.t) =
  let of_machine (machine : M.machine) =
    List.filter_map
      (fun (s : M.state) ->
        if is_waiting machine s.id then Some (machine.M.role, s.id) else None)
      machine.M.states
  in
  of_machine fsa.M.master @ of_machine fsa.M.slave

let all_assignments fsa =
  let domain = waiting_states fsa in
  let rec enumerate = function
    | [] -> [ [] ]
    | state :: rest ->
        let tails = enumerate rest in
        List.concat_map
          (fun o -> List.map (fun tail -> (state, o) :: tail) tails)
          [ `To_commit; `To_abort ]
  in
  let timeout_choices = enumerate domain in
  let ud_choices = enumerate domain in
  List.concat_map
    (fun timeouts -> List.map (fun uds -> { timeouts; uds }) ud_choices)
    timeout_choices

let validate_assignment (fsa : M.t) assignment =
  let domain = waiting_states fsa in
  List.iter
    (fun (state, _) ->
      if not (List.mem state domain) then
        invalid_arg
          (Format.asprintf "Fsa_actor: assignment for non-waiting state %a"
             Commit_fsa.Analysis.pp_site_state state))
    (assignment.timeouts @ assignment.uds)

(* One module per (fsa, assignment) pair, packed as a first-class
   Site.S. *)
let make ~name:protocol_name fsa assignment =
  let fsa = M.validate_exn fsa in
  validate_assignment fsa assignment;
  (* Check every tag is realisable up front. *)
  List.iter
    (fun (machine : M.machine) ->
      List.iter
        (fun (tr : M.transition) ->
          (match tr.M.guard with
          | M.Recv tag | M.Recv_all_votes tag -> ignore (msg_of_tag tag)
          | M.Start -> ());
          List.iter
            (function
              | M.Send_slaves tag | M.Send_master tag -> ignore (msg_of_tag tag))
            tr.M.actions)
        machine.M.transitions)
    [ fsa.M.master; fsa.M.slave ];
  let module Actor = struct
    let name = protocol_name

    let blocking_by_design = false

    type t = {
      ctx : Ctx.t;
      machine : M.machine;
      vote_yes : bool;
      timer : Ctx.Timer_slot.slot;
      mutable state : string;
      mutable votes : (string * Site_id.Set.t) list;  (* Recv_all_votes *)
    }

    let role_of t = t.machine.M.role

    let create ctx role =
      let machine, vote_yes =
        match role with
        | Site.Master_role -> (fsa.M.master, true)
        | Site.Slave_role { vote_yes } -> (fsa.M.slave, vote_yes)
      in
      Ctx.obs_state ctx machine.M.initial;
      {
        ctx;
        machine;
        vote_yes;
        timer = Ctx.Timer_slot.create ctx;
        state = machine.M.initial;
        votes = [];
      }

    let state_name t = t.state

    let lookup table t = List.assoc_opt (role_of t, t.state) table

    let final_of t kind =
      match
        List.find_opt (fun (s : M.state) -> s.M.kind = kind) t.machine.M.states
      with
      | Some s -> s.M.id
      | None ->
          invalid_arg
            (Printf.sprintf "Fsa_actor: %s has no %s state" protocol_name
               (match kind with M.Commit -> "commit" | _ -> "abort"))

    let do_action t = function
      | M.Send_slaves tag -> Ctx.broadcast_slaves t.ctx (msg_of_tag tag)
      | M.Send_master tag -> Ctx.send_master t.ctx (msg_of_tag tag)

    let decide_if_final t =
      match M.kind_of t.machine t.state with
      | M.Commit -> Ctx.decide t.ctx Types.Commit ~reason:"fsa: commit state"
      | M.Abort -> Ctx.decide t.ctx Types.Abort ~reason:"fsa: abort state"
      | M.Initial | M.Intermediate -> ()

    (* Jump to the assigned final state on a timeout or returned
       message; the master announces the outcome. *)
    let rec jump t why outcome =
      Ctx.Timer_slot.cancel t.timer;
      let kind = match outcome with `To_commit -> M.Commit | `To_abort -> M.Abort in
      t.state <- final_of t kind;
      Ctx.obs_state t.ctx t.state;
      if Ctx.tracing t.ctx then
        Ctx.log2 t.ctx tmpl_fsa_transition (Ctx.intern t.ctx why)
          (Ctx.intern t.ctx t.state);
      if role_of t = M.Master then
        Ctx.broadcast_slaves t.ctx
          (match outcome with
          | `To_commit -> Types.Commit_cmd
          | `To_abort -> Types.Abort_cmd);
      decide_if_final t

    and arm_timer t =
      Ctx.Timer_slot.cancel t.timer;
      if is_waiting t.machine t.state then
        match lookup assignment.timeouts t with
        | None -> ()
        | Some outcome ->
            let mult_t = if role_of t = M.Master then 2 else 3 in
            let here = t.state in
            Ctx.Timer_slot.set t.ctx t.timer ~mult_t ~label:(Label.Static "fsa-timeout")
              (fun () ->
                if String.equal t.state here then
                  jump t ("timeout in " ^ here) outcome)

    let apply t (tr : M.transition) =
      t.state <- tr.M.target;
      Ctx.obs_state t.ctx t.state;
      List.iter (do_action t) tr.M.actions;
      arm_timer t;
      decide_if_final t

    let begin_transaction t =
      match
        List.find_opt
          (fun (tr : M.transition) ->
            tr.M.guard = M.Start && String.equal tr.M.source t.state)
          t.machine.M.transitions
      with
      | Some tr -> apply t tr
      | None -> ()

    let candidate_transitions t tag =
      List.filter
        (fun (tr : M.transition) ->
          String.equal tr.M.source t.state
          &&
          match tr.M.guard with
          | M.Recv tag' | M.Recv_all_votes tag' -> String.equal tag tag'
          | M.Start -> false)
        t.machine.M.transitions

    let on_message t (envelope : Types.msg Network.envelope) =
      match tag_of_msg envelope.payload with
      | None -> ()
      | Some tag -> (
          (* A vote choice appears as two transitions reading the same
             tag; the voting flag picks the branch. *)
          let candidates = candidate_transitions t tag in
          let chosen =
            match candidates with
            | [] -> None
            | [ tr ] -> Some tr
            | multiple ->
                List.find_opt
                  (fun (tr : M.transition) -> tr.M.votes_yes = t.vote_yes)
                  multiple
          in
          match chosen with
          | None -> ()
          | Some tr -> (
              match tr.M.guard with
              | M.Start -> ()
              | M.Recv _ -> apply t tr
              | M.Recv_all_votes tag ->
                  let seen =
                    Option.value
                      (List.assoc_opt tag t.votes)
                      ~default:Site_id.Set.empty
                  in
                  let seen = Site_id.Set.add envelope.src seen in
                  t.votes <- (tag, seen) :: List.remove_assoc tag t.votes;
                  if Site_id.Set.cardinal seen = Ctx.n t.ctx - 1 then
                    apply t tr))

    let on_delivery t = function
      | Network.Msg envelope -> on_message t envelope
      | Network.Undeliverable _ -> (
          match lookup assignment.uds t with
          | Some outcome -> jump t ("UD in " ^ t.state) outcome
          | None -> ())
  end in
  (module Actor : Site.S)

let of_augment ~name augment =
  let analysis = augment.Commit_fsa.Augment.analysis in
  let fsa = Commit_fsa.Analysis.protocol analysis in
  let to_outcome = function
    | Commit_fsa.Augment.To_commit -> `To_commit
    | Commit_fsa.Augment.To_abort -> `To_abort
  in
  let timeouts, uds =
    List.fold_left
      (fun (timeouts, uds) (a : Commit_fsa.Augment.assignment) ->
        let timeout = to_outcome a.Commit_fsa.Augment.timeout in
        let ud =
          match a.Commit_fsa.Augment.on_undeliverable with
          | Some o -> to_outcome o
          | None -> timeout (* ambiguous: follow Rule(a) *)
        in
        ((a.state, timeout) :: timeouts, (a.state, ud) :: uds))
      ([], []) augment.Commit_fsa.Augment.assignments
  in
  make ~name fsa { timeouts; uds }

(** The long-running cluster runtime.

    Where {!Commit_db.Tm} runs a fixed batch of transactions to a
    verdict, the runtime keeps a cluster of [n] sites alive for an
    open-ended stretch of virtual time and streams transactions through
    it: an arrival process offers [load] cross-site transfers per 100T,
    the {!Scheduler} admits them into a bounded in-flight window and
    places a coordinator per transaction, every admitted transaction
    runs the configured commit protocol over the one shared network —
    and a partition timeline ({!Partition.sequence}-style cut/heal
    phases) plays out underneath, with the Section-5 termination
    protocol engaging automatically on partition detection (it {e is}
    the configured protocol's UD/timeout machinery; swap in plain 2PC
    or 3PC to watch the same timeline strand transactions instead).

    Coordinators other than site 1 are realised by relabeling: a
    transaction coordinated by physical site [m] runs its protocol
    instances over {e logical} site ids rotated so that [m] is logical
    site 1 (the paper's protocols hard-wire "site 1 masters"); the wire
    and the partition operate on physical ids throughout, and envelopes
    are translated at the boundary.

    Everything observable flows into the {!Metrics} pipeline and the
    continuous {!Auditor}; {!to_json} drains both plus the run summary
    into one deterministic document — same config and seed, byte-
    identical JSON. *)

type config = {
  protocol : Site.packed;
  n : int;
  t_unit : Vtime.t;
  mode : Network.mode;
  timeline : Partition.t;  (** the cut/heal schedule; physical sites *)
  delay : Delay.t;
  seed : int64;
  duration : Vtime.t;  (** arrivals stop at this instant *)
  drain : Vtime.t;  (** extra run time for in-flight transactions *)
  load : int;  (** offered transactions per 100T; >= 1 *)
  window : int;  (** max concurrently running transactions *)
  queue_limit : int option;  (** admission queue bound; [None] = unbounded *)
  policy : Scheduler.policy;
  pause_during_cut : bool;
  crashes : (Site_id.t * Vtime.t) list;
      (** crash schedule: at each instant the site falls silent and
          loses its volatile state — future sends and deliveries die,
          its timers fire into the void, and the scheduler stops
          picking it as a coordinator.  Distinct from a partition:
          there is no heal.  Without a matching entry in [recoveries]
          the crash is a crash-stop. *)
  recoveries : (Site_id.t * Vtime.t) list;
      (** crash-recover schedule: at each instant the (currently dead)
          site replays its WAL ({!Commit_storage.Durable_site.recover}),
          applies the paper's recovery rule — redo
          committed-but-unfinished work, abort what never prepared,
          adopt the group outcome for in-doubt [Prepared] transactions
          (waiting for one if the group is still deciding) — and
          rejoins scheduling, settlement and the auditor.  Its
          pre-crash protocol instances stay fenced: their volatile
          state died with the crash, so the recovery rule speaks for
          the site on every transaction open across the outage.  Each
          site listed must also appear in [crashes] at a strictly
          earlier instant (checked by {!run}). *)
  balance : int;  (** initial per-account balance of each transfer *)
  amount : int;  (** amount moved by each transfer *)
  bucket : Vtime.t;  (** metrics time-series bucket width *)
  trace_enabled : bool;
  snapshot_every : Vtime.t option;
      (** emit a windowed telemetry {!Metrics.snapshot} every this many
          ticks (plus a final cut at the horizon); [None] = off *)
  profile : bool;
      (** attribute host wall-time to subsystem buckets
          (engine/network/protocol/lock-manager/auditor); the result is
          nondeterministic and never serialised *)
}

val default_config : ?protocol:Site.packed -> ?n:int -> unit -> config
(** Termination-transient protocol, [n = 3], [T = 1000] ticks, 200T
    duration, 30T drain, load 50, window 8, queue limit 64,
    partition-aware policy, 10T buckets. *)

type report = {
  config : config;
  horizon : Vtime.t;
  offered : int;
  admitted : int;
  rejected : int;
  starved : int;  (** still queued when the run ended *)
  committed : int;
  aborted : int;
  torn : int;
  blocked : int;  (** admitted but undecided somewhere at the horizon *)
  settled : int;
  termination_invocations : int;
      (** transactions whose decision path went through the termination
          machinery (any non-failure-free decision reason) *)
  probes : int;  (** termination-protocol probe messages on the wire *)
  latency : Commit_checker.Stats.t option;
      (** admission -> last site decided, committed transactions *)
  queue_wait : Commit_checker.Stats.t option;
  throughput_per_100t : float;  (** committed per 100T of [duration] *)
  disk_total : int;  (** money in the durable stores at the horizon *)
  auditor : Auditor.t;
  metrics : Metrics.t;
  net_stats : Network.stats;
  trace : Trace.t;
  trace_dropped : int;
      (** entries the bounded trace ring evicted during the run; the
          CLI surfaces a non-zero count as a stderr warning, and it is
          serialised in {!to_json}'s ["runtime"] section *)
  events_run : int;
      (** engine events executed — deterministic, serialised in
          {!to_json}'s ["runtime"] section so snapshot streams can be
          cross-checked against the run *)
  retired : int;
      (** transactions dropped from the runtime's and the auditor's
          tables before the horizon: settled, decided at every site,
          with no message in flight and no timer pending.  Not
          serialised: it is bookkeeping, not behaviour *)
  snapshots : Metrics.snapshot list;
      (** windowed telemetry cuts, oldest first (one per
          [snapshot_every] boundary plus the final horizon cut); empty
          unless [config.snapshot_every] is set *)
  profile : Prof.report option;
      (** wall-clock subsystem attribution ([Some] iff
          [config.profile]); inherently nondeterministic, so never part
          of {!to_json} *)
}

type scratch
(** Reusable per-domain state for cluster sweeps (today: one engine
    whose grown heap array survives across runs).  A scratch must never
    be used by two runs concurrently; a run with a scratch is
    byte-identical to one without. *)

val make_scratch : unit -> scratch

val run : ?obs:Obs.t -> ?scratch:scratch -> config -> report
(** [obs] (default {!Obs.disabled}) records per-transaction lifecycle
    spans — queued / admission-to-settlement on track 0, protocol state
    spans on each physical site's track — plus every message-flow edge.
    [scratch] reuses a per-domain engine via {!Engine.reset}; the
    returned [report.trace] is always a fresh store.
    @raise Invalid_argument on a non-positive load/window or
    [amount >= balance]. *)

val atomic : report -> bool
(** No torn transactions, no conservation breaches, and the durable
    stores hold exactly the money the auditor witnessed. *)

val to_json : report -> Commit_checker.Export.json
(** Deterministic: a fixed field order and name-sorted metric objects;
    identical configs and seeds yield byte-identical documents. *)

val pp_report : Format.formatter -> report -> unit

val pp_timeline : Format.formatter -> report -> unit
(** The bucket-by-bucket life of the cluster: arrivals, commits,
    aborts, termination settlements, with the partition phases marked —
    the cluster-life example's table. *)

(** The driver's connection state and policy, shared by {!Core},
    {!Manager} and everything that reports on them.

    "A device driver is the implementation of a control plane protocol,
    or even a specific version of a protocol. Drivers translate network
    activity for a subset of nodes to the common API supported by the
    network operating system" (paper §4.1). Here the common API is the
    file system and the protocol is {!Openflow.Msg.t}: {!Core} is the
    one driver, and the switch's {!Openflow.Dialect.t} only picks the
    codec. Supporting a new wire version means writing one codec — the
    driver and every application are untouched. *)

(** The driver's connection state machine (surfaced through the
    switch's [status] file, [/yanc/.proc] and [yancctl]):

    {v
    Handshaking --features--> Connected <--> Degraded
         ^                        |  (echo unanswered past one interval)
         |                        | (nothing received for liveness_timeout)
         |                        v
         +--<--backoff--- Reconnecting --max retries exhausted--> Dead
    v}

    [Dead] is terminal until traffic arrives again: operators see it,
    [yancctl counters] exits nonzero on it. *)
type status = Handshaking | Connected | Degraded | Reconnecting | Dead

let status_to_string = function
  | Handshaking -> "handshaking"
  | Connected -> "connected"
  | Degraded -> "degraded"
  | Reconnecting -> "reconnecting"
  | Dead -> "dead"

(** Keepalive / retry policy, shared by the driver and (via the
    manager) its agent. *)
type tuning = {
  keepalive_interval : float;  (** echo-request period; 0 disables *)
  liveness_timeout : float;    (** silence before declaring the peer gone *)
  backoff_base : float;
  backoff_cap : float;
  backoff_jitter : float;
  max_retries : int;           (** reconnect attempts before [Dead] *)
  stats_interval : float;
      (** periodic flow/port stats poll; 0 disables (the scale bench
          turns it off so a storm measures the packet-in path alone) *)
}

let default_tuning =
  { keepalive_interval = 1.0; liveness_timeout = 3.0; backoff_base = 0.25;
    backoff_cap = 4.0; backoff_jitter = 0.1; max_retries = 20;
    stats_interval = 5.0 }

(** Connection-survival counters, per driver. *)
type link_counters = {
  disconnects : int;       (** liveness timeouts declared *)
  retries : int;           (** handshake (re)transmissions after the first *)
  resyncs : int;           (** flow-table reconciles after a re-handshake *)
  resync_installs : int;   (** adds made by a resync's sweep *)
  resync_deletes : int;    (** stray switch entries a resync deleted *)
  keepalives_sent : int;
}

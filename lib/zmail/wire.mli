(** Wire messages between compliant ISPs and the bank (§4.3–§4.4).

    Directionality follows the paper's key usage:
    - ISP → bank traffic ([buy], [sell], audit replies) is {e sealed}
      to the bank's public key ([NCR(B_p, …)]), so only the bank reads
      it;
    - bank → ISP traffic ([buyreply], [sellreply], audit requests) is
      {e signed} with the bank's private key ([NCR(R_p, …)]), so every
      ISP can check its origin;
    - bank → bank clearing traffic ([transfer], [transferack]) is
      {e signed} by the originating member bank and verified with that
      bank's public key, so a tampered or forged transfer is rejected
      rather than mis-applied.

    Payloads have an explicit textual encoding (no [Marshal]), so a
    tampered byte is a parse failure, not undefined behaviour. *)

type payload =
  | Buy of { amount : Epenny.amount; nonce : int64 }
  | Buy_reply of { nonce : int64; accepted : bool }
  | Sell of { amount : Epenny.amount; nonce : int64 }
  | Sell_reply of { nonce : int64 }
  | Audit_request of { seq : int }
  | Audit_reply of { isp : int; seq : int; credit : (int * int) array }
      (** [credit] is the {e sparse} reported row: [(peer, count)]
          sorted by peer id.  At 10^4 ISPs a dense row would make every
          reply (and its sealing cost) O(n); the sparse row is sized by
          the ISP's actual traffic partners.  Honest encoders emit the
          canonical non-zero form ([Audit.Row.pairs]); tampered rows
          may carry explicit zeros, which verification treats as no
          claim. *)
  | Transfer of { from_bank : int; to_bank : int; amount : Epenny.amount; xfer_id : int }
      (** Bank → bank clearing transfer (§5): signed by [from_bank],
          applied exactly once at [to_bank] (dedup on [xfer_id]). *)
  | Transfer_ack of { xfer_id : int }
      (** Bank → bank receipt, signed by the receiving bank; the sender
          retransmits the transfer until acked. *)

val encode : payload -> string
val decode : string -> (payload, string) result

val encode_bin : Persist.Codec.W.t -> payload -> unit
val decode_bin : Persist.Codec.R.t -> payload
(** Binary codec for snapshots and durable ISP images (tagged,
    self-delimiting, composable inside larger [Persist.Codec] streams).
    The textual {!encode}/{!decode} pair remains the sealed/signed wire
    format.  [decode_bin] raises [Persist.Codec.Corrupt] on a bad tag
    or field. *)

type signed = { payload : payload; signature : int }
(** A bank-origin message: payload in clear, RSA signature over the
    encoding. *)

val seal_for_bank : Sim.Rng.t -> Toycrypto.Rsa.public -> payload -> Toycrypto.Seal.sealed
(** ISP → bank. *)

val open_at_bank : Toycrypto.Rsa.secret -> Toycrypto.Seal.sealed -> payload option
(** Unseal and decode; [None] on forgery, tampering or garbage. *)

val sign_by_bank : Toycrypto.Rsa.secret -> payload -> signed
(** Bank → ISP. *)

val verify_from_bank : Toycrypto.Rsa.public -> signed -> payload option
(** Check the signature and return the payload; [None] if invalid. *)

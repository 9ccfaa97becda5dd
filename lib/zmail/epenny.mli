(** E-penny amounts and their real-money value.

    §1.2: "The cost of sending (or value of receiving) one email message
    is a unit called an e-penny.  For simplicity, assume that the 'real
    money' cost of one e-penny is $0.01." *)

type amount = int
(** E-penny quantities are exact integers; all APIs in this library
    treat negative amounts as programming errors. *)

val to_dollars : amount -> float

val check : amount -> amount
(** Identity on non-negative amounts.
    @raise Invalid_argument on a negative amount. *)

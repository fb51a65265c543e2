package repro.catalyst

import org.apache.spark.sql.{SparkSession, SparkSessionExtensions}

/** Injects [[PredicateTransferRule]] into the optimizer. Two entry points:
  *
  *  - config-time: `--conf spark.sql.extensions=repro.catalyst.PredicateTransferExtensions`,
  *    which runs the rule once, in the optimizer's pre-CBO batch;
  *  - runtime (tests / shared sessions): [[PredicateTransferExtensions.install]],
  *    which appends the rule to `spark.experimental.extraOptimizations` once.
  *
  * Both run the rule after the fixed-point operator batches. Run inside
  * them, the rule would see its filters pushed around between its own runs,
  * and `InferFiltersFromConstraints` would copy each one across its join
  * key to the relation that built it, where it prunes nothing.
  *
  * Either way the rule is inert until the session conf
  * `spark.repro.predicateTransfer.enabled` is set to `true`.
  */
class PredicateTransferExtensions extends (SparkSessionExtensions => Unit) {
  override def apply(extensions: SparkSessionExtensions): Unit =
    extensions.injectPreCBORule(_ => PredicateTransferRule)
}

object PredicateTransferExtensions {

  /** Idempotently add the rule to an existing session's experimental
    * optimizations. Safe on a shared session: the rule no-ops unless the
    * enable conf is set.
    */
  def install(spark: SparkSession): Unit = synchronized {
    val classic = spark.asInstanceOf[org.apache.spark.sql.classic.SparkSession]
    if (!classic.experimental.extraOptimizations.contains(PredicateTransferRule)) {
      classic.experimental.extraOptimizations =
        classic.experimental.extraOptimizations :+ PredicateTransferRule
    }
  }
}

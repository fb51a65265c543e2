package repro.core

import org.apache.spark.sql.functions._
import repro.SparkSpec

import scala.util.Random

/** Bloom and exact transfer filters: no false negatives, sane selectivity,
  * type canonicalization, composite keys. Property-style tests use a seeded
  * generator (the scalatest↔scalacheck bridge artifact is not available
  * offline, so properties are sampled deterministically by hand).
  */
class TransferFilterSpec extends SparkSpec {
  import spark.implicits._

  private def keysDf(ks: Seq[Long], name: String = "k") = ks.toDF(name)

  test("bloom filter has no false negatives (property, 20 seeded samples)") {
    val rnd = new Random(42)
    for (_ <- 1 to 20) {
      val ks = List.fill(1 + rnd.nextInt(200))(rnd.nextLong() % 1000)
      val build = keysDf(ks, "b")
      val probe = keysDf(ks, "k") // probe with exactly the build keys
      val f = BloomFilterBuilder().build(build, Seq("b"), ks.size.toLong)
      assert(f.applyTo(probe, Seq("k")).count() == ks.size.toLong,
        s"lost rows for sample of ${ks.size} keys")
    }
  }

  test("exact filter keeps exactly the matching keys (property, 20 seeded samples)") {
    val rnd = new Random(7)
    for (_ <- 1 to 20) {
      val build = List.fill(1 + rnd.nextInt(40))(rnd.nextInt(50).toLong)
      val probe = List.fill(1 + rnd.nextInt(40))(rnd.nextInt(50).toLong)
      val f = ExactFilterBuilder.build(keysDf(build, "b"), Seq("b"), build.size.toLong)
      val kept = f.applyTo(keysDf(probe, "k"), Seq("k"))
        .collect().map(_.getLong(0)).toList.sorted
      assert(kept == probe.filter(build.toSet).sorted)
    }
  }

  test("bloom keeps a superset of what exact keeps") {
    val build = keysDf(1L to 100L, "b")
    val probe = keysDf(1L to 10000L, "k")
    val bloomKept = BloomFilterBuilder().build(build, Seq("b"), 100)
      .applyTo(probe, Seq("k")).collect().map(_.getLong(0)).toSet
    val exactKept = ExactFilterBuilder.build(build, Seq("b"), 100)
      .applyTo(probe, Seq("k")).collect().map(_.getLong(0)).toSet
    assert(exactKept.subsetOf(bloomKept))
    assert(exactKept == (1L to 100L).toSet)
  }

  test("bloom false positive rate is near the configured fpp") {
    val build = keysDf(1L to 1000L, "b")
    val probe = keysDf(100001L to 200000L, "k") // fully disjoint
    val kept = BloomFilterBuilder(fpp = 0.01).build(build, Seq("b"), 1000)
      .applyTo(probe, Seq("k")).count()
    val rate = kept.toDouble / 100000
    assert(rate < 0.05, s"observed fpp $rate way above configured 0.01")
  }

  test("empty build side filters everything (bloom and exact)") {
    val probe = keysDf(1L to 100L, "k")
    // no rows at all, and rows a local filter removes before the build
    for (build <- Seq(keysDf(Nil, "b"), keysDf(1L to 10L, "b").filter(col("b") > 100))) {
      assert(BloomFilterBuilder().build(build, Seq("b"), 0)
        .applyTo(probe, Seq("k")).count() == 0L)
      assert(ExactFilterBuilder.build(build, Seq("b"), 0)
        .applyTo(probe, Seq("k")).count() == 0L)
      val (count, Seq(f)) = BloomFilterBuilder().buildMany(build, Seq(Seq("b")), 0,
        withCount = true)
      assert(count.contains(0L))
      assert(f.applyTo(probe, Seq("k")).count() == 0L)
    }
  }

  test("buildMany with no key sets is a count alone") {
    val (count, filters) = BloomFilterBuilder().buildMany(keysDf(1L to 7L, "b"), Nil, 7,
      withCount = true)
    assert(count.contains(7L))
    assert(filters.isEmpty)
  }

  test("canonKeys makes INT build side filter BIGINT probe side") {
    val build = (1 to 50).toDF("b").select(col("b").cast("int").as("b"))
    val probe = (1L to 200L).toDF("k") // bigint
    val f = BloomFilterBuilder().build(build, Seq("b"), 50)
    val kept = f.applyTo(probe, Seq("k")).collect().map(_.getLong(0)).toSet
    assert((1L to 50L).toSet.subsetOf(kept), "int-built bloom must match long probes")
  }

  test("composite-key filters treat the tuple atomically") {
    val build = Seq((1L, 10L), (2L, 20L)).toDF("b1", "b2")
    // (1,20) must NOT pass even though 1 and 20 each appear componentwise.
    val probe = Seq((1L, 10L), (1L, 20L), (2L, 20L), (2L, 10L)).toDF("k1", "k2")
    val kept = ExactFilterBuilder.build(build, Seq("b1", "b2"), 2)
      .applyTo(probe, Seq("k1", "k2"))
      .collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(kept == Set((1L, 10L), (2L, 20L)))
  }

  test("composite-key bloom has no false negatives on pairs") {
    val pairs = for (a <- 1L to 30L; b <- 1L to 3L) yield (a, b)
    val build = pairs.toDF("b1", "b2")
    val f = BloomFilterBuilder().build(build, Seq("b1", "b2"), pairs.size.toLong)
    assert(f.applyTo(pairs.toDF("k1", "k2"), Seq("k1", "k2")).count() ==
      pairs.size.toLong)
  }

  test("string keys transfer") {
    val build = Seq("ASIA", "EUROPE").toDF("b")
    val probe = Seq("ASIA", "EUROPE", "AFRICA", "AMERICA").toDF("k")
    val kept = ExactFilterBuilder.build(build, Seq("b"), 2)
      .applyTo(probe, Seq("k")).collect().map(_.getString(0)).toSet
    assert(kept == Set("ASIA", "EUROPE"))
  }

  test("hashCol is consistent across tables with different column names") {
    val a = Seq(7L).toDF("x").select(TransferFilter.hashCol(Seq(7L).toDF("x"), Seq("x")))
    val b = Seq(7L).toDF("y").select(TransferFilter.hashCol(Seq(7L).toDF("y"), Seq("y")))
    assert(a.head.getLong(0) == b.head.getLong(0))
  }

  test("filter builders report their kind") {
    val df = keysDf(Seq(1L), "b")
    assert(BloomFilterBuilder().build(df, Seq("b"), 1).kind == "bloom")
    assert(ExactFilterBuilder.build(df, Seq("b"), 1).kind == "exact")
    assert(BloomFilterBuilder(0.02).name.contains("0.02"))
    assert(ExactFilterBuilder.name == "exact")
  }

  test("floating-point keys a join holds equal pass every filter: 0.0/-0.0 and NaN") {
    val otherNaN = java.lang.Double.longBitsToDouble(0x7ff8000000000001L)
    val probe = Seq(-0.0, 0.0, Double.NaN, otherNaN).toDF("k")
    for (build <- Seq(Seq(0.0, Double.NaN).toDF("b"), Seq(-0.0, otherNaN).toDF("b"),
                      Seq(-0.0f, Float.NaN).toDF("b"))) {
      val filters = Seq(
        BloomFilterBuilder().build(build, Seq("b"), 2),
        BloomFilterBuilder().buildMany(build, Seq(Seq("b")), 2, withCount = false)._2.head,
        ExactFilterBuilder.build(build, Seq("b"), 2))
      for (f <- filters)
        assert(f.applyTo(probe, Seq("k")).count() == 4L, s"${f.kind} over ${build.schema}")
    }
  }

  test("double keys match exactly across filters") {
    val build = Seq(1.25, 2.5).toDF("b")
    val probe = Seq(1.25, 2.5, 2.500001).toDF("k")
    val kept = ExactFilterBuilder.build(build, Seq("b"), 2)
      .applyTo(probe, Seq("k")).count()
    assert(kept == 2L)
  }
}
